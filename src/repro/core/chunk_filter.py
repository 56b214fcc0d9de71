"""HiDeStore's chunk filter: active containers, demotion, compaction (§4.2).

Unique chunks are staged in **active containers**.  After each version the
cold residue of the fingerprint cache is *demoted*: removed from the active
containers and written sequentially into sealed **archival containers**
(tagged with the version whose expiry will free them, enabling §4.5's
GC-free deletion).  Demotion leaves holes, so sparse active containers —
utilisation below a threshold — are merged and compacted so the hot set
stays physically dense (Figure 6).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from ..chunking.stream import Chunk
from ..errors import StorageError, UnknownContainerError
from ..storage.container import Container
from ..storage.container_store import ContainerStore
from .double_cache import CacheEntry


@dataclass
class FilterStats:
    """Accounting for the demotion/compaction machinery (Fig. 12 inputs)."""

    cold_chunks_moved: int = 0
    cold_bytes_moved: int = 0
    archival_containers_written: int = 0
    compactions: int = 0
    containers_merged: int = 0
    move_seconds: float = 0.0
    compact_seconds: float = 0.0


class ActiveContainerPool:
    """The mutable set of active containers plus the demotion path.

    Args:
        store: the shared container store; supplies globally unique IDs and
            receives sealed archival containers.  Active containers are held
            here (in memory) until every chunk they hold has been demoted or
            relocated.
        compaction_threshold: utilisation below which an active container is
            considered sparse and eligible for merging (§4.2).
    """

    def __init__(self, store: ContainerStore, compaction_threshold: float = 0.7) -> None:
        if not (0.0 <= compaction_threshold <= 1.0):
            raise StorageError("compaction_threshold must be in [0, 1]")
        self.store = store
        self.compaction_threshold = compaction_threshold
        self._active: Dict[int, Container] = {}
        self._open: Optional[Container] = None
        #: fp -> active container id, for resolving ACTIVE_CID recipe entries.
        self.location: Dict[bytes, int] = {}
        #: Checkpoint tracking: cid -> head entry of the part that stores the
        #: container.  Written once: a container grows only while it is
        #: ``_open`` or a fresh compaction target, both over by the next
        #: version boundary; after that demotion only shrinks its live set.
        #: Maintained by :mod:`repro.core.checkpoint` alone.
        self.persisted: Dict[int, Dict] = {}
        self.stats = FilterStats()

    # ------------------------------------------------------------------
    # Hot path: store incoming unique chunks
    # ------------------------------------------------------------------
    def store_chunk(self, chunk: Chunk) -> int:
        """Append a unique chunk to the open active container; returns its CID."""
        if self._open is None or not self._open.fits(chunk.size):
            if self._open is not None:
                self._active[self._open.container_id] = self._open
            self._open = self.store.allocate()
            self._active[self._open.container_id] = self._open
        if chunk.size > self._open.capacity:
            raise StorageError(
                f"chunk of {chunk.size} B exceeds container capacity {self._open.capacity} B"
            )
        self._open.add(chunk)
        self.location[chunk.fingerprint] = self._open.container_id
        return self._open.container_id

    def store_chunks(self, chunks: Iterable[Chunk]) -> List[int]:
        """Append a dedup batch's unique chunks in order; returns their CIDs.

        The batch companion to :meth:`store_chunk`: one pool call per
        engine dedup batch instead of one per chunk.  Appends happen in
        input order, so any batch partitioning yields the exact container
        layout the per-chunk path would have produced.
        """
        store = self.store_chunk
        return [store(chunk) for chunk in chunks]

    def end_version(self) -> None:
        """Close the open container boundary (it stays active, not archival)."""
        self._open = None

    # ------------------------------------------------------------------
    # Demotion: cold chunks -> archival containers
    # ------------------------------------------------------------------
    def demote(
        self, cold: Mapping[bytes, CacheEntry], expiry_version: Optional[int] = None
    ) -> Tuple[Dict[bytes, int], List[int]]:
        """Move cold chunks from active to archival containers.

        Args:
            cold: fingerprint -> cache entry (the T1 residue).
            expiry_version: version tag recorded on the written archival
                containers (for §4.5 deletion); purely informational here —
                the caller's deletion manager keeps the map.

        Returns:
            ``(moved, archival_cids)``: the archival CID per fingerprint, and
            the list of archival containers written.
        """
        started = time.perf_counter()
        moved: Dict[bytes, int] = {}
        written: List[int] = []
        archive: Optional[Container] = None
        for fp, entry in cold.items():
            container = self._active.get(entry.cid)
            if container is None:
                if entry.cid in self.store:
                    # Already archival: a reopened system primed its cache
                    # from a retired recipe.  Nothing to move; just report
                    # the existing location so recipe updates resolve.
                    moved[fp] = entry.cid
                    continue
                raise UnknownContainerError(
                    f"cold chunk {fp.hex()[:8]} claims active container {entry.cid}, "
                    "which is not in the pool"
                )
            slot = container.remove(fp)
            self.location.pop(fp, None)
            chunk = Chunk(fp, slot.size, slot.data)
            if archive is None or not archive.fits(chunk.size):
                if archive is not None:
                    self.store.write(archive)
                    written.append(archive.container_id)
                archive = self.store.allocate()
            archive.add(chunk)
            moved[fp] = archive.container_id
            self.stats.cold_chunks_moved += 1
            self.stats.cold_bytes_moved += chunk.size
        if archive is not None and not archive.is_empty:
            self.store.write(archive)
            written.append(archive.container_id)
        self.stats.archival_containers_written += len(written)
        # Drop active containers that demotion emptied entirely.
        for cid in [cid for cid, c in self._active.items() if c.is_empty]:
            del self._active[cid]
        self.stats.move_seconds += time.perf_counter() - started
        return moved, written

    # ------------------------------------------------------------------
    # Compaction: merge sparse active containers (Figure 6)
    # ------------------------------------------------------------------
    def compact(self) -> Dict[bytes, int]:
        """Merge sparse active containers; returns chunk relocations.

        Containers whose utilisation is below the threshold are drained
        fullest-first into freshly allocated containers (order inside a
        merged container is irrelevant — all its chunks are hot and will be
        prefetched together, §4.2).  Returns ``fp -> new active CID`` for
        every relocated chunk; the caller must propagate these into the
        fingerprint cache.
        """
        started = time.perf_counter()
        sparse = [
            c
            for c in self._active.values()
            if c.utilization < self.compaction_threshold and not c.is_empty
        ]
        if len(sparse) < 2:
            self.stats.compact_seconds += time.perf_counter() - started
            return {}
        sparse.sort(key=lambda c: c.used, reverse=True)
        relocations: Dict[bytes, int] = {}
        target: Optional[Container] = None
        merged = 0
        for container in sparse:
            for chunk in list(container.chunks()):
                if target is None or not target.fits(chunk.size):
                    target = self.store.allocate()
                    self._active[target.container_id] = target
                target.add(chunk)
                relocations[chunk.fingerprint] = target.container_id
                self.location[chunk.fingerprint] = target.container_id
            del self._active[container.container_id]
            merged += 1
        self.stats.compactions += 1
        self.stats.containers_merged += merged
        self.stats.compact_seconds += time.perf_counter() - started
        return relocations

    # ------------------------------------------------------------------
    # Read path (restore from active containers is a billed read too)
    # ------------------------------------------------------------------
    def read(self, cid: int) -> Container:
        try:
            container = self._active[cid]
        except KeyError:
            raise UnknownContainerError(f"no active container {cid}") from None
        self.store.stats.note_container_read(container.used)
        return container

    def peek(self, cid: int) -> Container:
        """Fetch an active container *without* billing a read (metrics/fsck)."""
        try:
            return self._active[cid]
        except KeyError:
            raise UnknownContainerError(f"no active container {cid}") from None

    def __contains__(self, cid: int) -> bool:
        return cid in self._active

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def container_ids(self) -> List[int]:
        return sorted(self._active)

    def container_count(self) -> int:
        return len(self._active)

    def hot_bytes(self) -> int:
        return sum(c.used for c in self._active.values())

    def utilizations(self) -> List[float]:
        return [c.utilization for c in self._active.values()]

    def iter_containers(self) -> Iterable[Container]:
        return self._active.values()
