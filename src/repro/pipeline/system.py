"""The traditional deduplication backup system (Destor-equivalent pipeline).

:class:`BackupSystem` wires together the full paper pipeline —
chunking happens upstream (the system consumes :class:`BackupStream`s),
then **index → rewrite → store → recipe** per version, and
**recipe → restore algorithm → chunks** on the way back.  All compared
baselines (DDFS, Sparse Indexing, SiLo, with or without rewriting) are just
different constructor arguments; HiDeStore replaces this class entirely
(see :mod:`repro.core.hidestore`) because it changes the deduplication
process itself.
"""

from __future__ import annotations

import time
from typing import Dict, Iterator, List, Optional, Sequence

from ..chunking.stream import BackupStream, Chunk
from ..errors import StorageError
from ..index.base import FingerprintIndex
from ..restore.base import RestoreAlgorithm
from ..restore.faa import FAARestore
from ..rewriting.base import Rewriter
from ..rewriting.none import NoRewriter
from ..storage.container import Container
from ..storage.backend import MemoryBackend
from ..storage.container_store import BackendContainerStore
from ..storage.recipe import BackendRecipeStore, Recipe
from ..units import CONTAINER_SIZE
from ..reports import BackupReport, SystemReport
from .base import RestoreMixin


def _batches(items: Sequence, size: int) -> Iterator[Sequence]:
    if size <= 0:
        size = 1
    for start in range(0, len(items), size):
        yield items[start : start + size]


class BackupSystem(RestoreMixin):
    """A complete deduplicating backup store with pluggable policies.

    Args:
        index: fingerprint index (decides duplicate vs unique).
        rewriter: rewrite policy (defaults to no rewriting).
        container_store: sealed-container store (defaults to one over a
            :class:`~repro.storage.backend.MemoryBackend`).
        recipe_store: recipe store (defaults to one over a
            :class:`~repro.storage.backend.MemoryBackend`).
        restorer: default restore algorithm (defaults to FAA, as Destor's
            restore pipeline does for non-ALACC schemes).
        container_size: container payload capacity (4 MiB, paper default).
    """

    def __init__(
        self,
        index: FingerprintIndex,
        rewriter: Optional[Rewriter] = None,
        container_store: Optional[BackendContainerStore] = None,
        recipe_store: Optional[BackendRecipeStore] = None,
        restorer: Optional[RestoreAlgorithm] = None,
        container_size: int = CONTAINER_SIZE,
    ) -> None:
        self.index = index
        self.rewriter = rewriter if rewriter is not None else NoRewriter()
        self.containers = (
            container_store
            if container_store is not None
            else BackendContainerStore(MemoryBackend(), container_size)
        )
        self.recipes = (
            recipe_store if recipe_store is not None else BackendRecipeStore(MemoryBackend())
        )
        # One ledger per engine: the container store's, shared with the
        # recipes and the index.
        self.io = self.recipes.stats = self.index.io_stats = self.containers.stats
        self.restorer = restorer if restorer is not None else FAARestore()
        self.container_size = container_size
        self._open: Optional[Container] = None
        self._next_version = 1
        self.report = SystemReport()

    # ------------------------------------------------------------------
    # Backup path
    # ------------------------------------------------------------------
    def backup(self, stream: BackupStream) -> BackupReport:
        """Deduplicate and store one backup version; returns its report."""
        started = time.perf_counter()
        version_id = self._next_version
        self._next_version += 1
        tag = stream.tag or f"v{version_id}"

        chunks: List[Chunk] = list(stream)
        self.index.begin_version(version_id, tag)
        self.rewriter.begin_version(version_id, tag)

        lookups_before = self.io.index_lookups

        # Phase 1: classify every chunk (batched by the index's segment size).
        lookups: List[Optional[int]] = []
        for batch in _batches(chunks, self.index.segment_size):
            lookups.extend(self.index.lookup_batch(batch))

        # Phase 2: rewrite policy may flip duplicates into writes.
        decisions = self.rewriter.decide(chunks, lookups)

        # Phase 3: store uniques/rewrites, build the recipe, teach the index.
        report = BackupReport(version_id, tag)
        recipe = Recipe(version_id, tag)
        recently_stored: Dict[bytes, int] = {}
        containers_before = len(self.containers)

        position = 0
        for batch in _batches(chunks, self.index.segment_size):
            for chunk in batch:
                looked_up = lookups[position]
                decision = decisions[position]
                position += 1
                if decision is None:
                    cid = recently_stored.get(chunk.fingerprint)
                    if cid is None:
                        cid = self._store_chunk(chunk)
                        recently_stored[chunk.fingerprint] = cid
                        report.unique_chunks += 1
                        report.stored_bytes += chunk.size
                        if looked_up is not None:
                            report.rewritten_chunks += 1
                    else:
                        report.duplicate_chunks += 1
                else:
                    cid = decision
                    report.duplicate_chunks += 1
                recipe.append(chunk.fingerprint, chunk.size, cid)
                self.index.record(chunk.drop_data(), cid)
                report.total_chunks += 1
                report.logical_bytes += chunk.size
            self.index.end_batch()

        self._flush_open_container()
        self.recipes.write(recipe)
        self.index.end_version()
        self.rewriter.end_version()

        report.disk_index_lookups = self.io.index_lookups - lookups_before
        report.containers_written = len(self.containers) - containers_before
        report.elapsed_seconds = time.perf_counter() - started

        self.report.versions += 1
        self.report.logical_bytes += report.logical_bytes
        self.report.stored_bytes += report.stored_bytes
        self.report.disk_index_lookups += report.disk_index_lookups
        self.report.index_memory_bytes = self.index.memory_bytes
        self.report.per_version.append(report)
        return report

    def _store_chunk(self, chunk: Chunk) -> int:
        if self._open is None:
            self._open = self.containers.allocate()
        if not self._open.fits(chunk.size):
            self.containers.write(self._open)
            self._open = self.containers.allocate()
        if chunk.size > self._open.capacity:
            raise StorageError(
                f"chunk of {chunk.size} B exceeds container capacity "
                f"{self._open.capacity} B"
            )
        self._open.add(chunk)
        return self._open.container_id

    def _flush_open_container(self) -> None:
        if self._open is not None and not self._open.is_empty:
            self.containers.write(self._open)
        self._open = None

    # ------------------------------------------------------------------
    # Restore path: inherited from RestoreMixin (the default hooks — read
    # entries verbatim, fetch from the archival store — are exactly the
    # traditional pipeline's behaviour).
    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def dedup_ratio(self) -> float:
        return self.report.dedup_ratio

    def version_ids(self) -> List[int]:
        return self.recipes.version_ids()

    def stored_bytes(self) -> int:
        """Physical payload bytes currently held in containers."""
        return self.containers.stored_bytes()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"BackupSystem(index={type(self.index).__name__}, "
            f"rewriter={type(self.rewriter).__name__}, "
            f"versions={self.report.versions}, "
            f"dedup_ratio={self.dedup_ratio:.3f})"
        )
