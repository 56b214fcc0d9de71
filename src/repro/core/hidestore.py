"""HiDeStore: the paper's high-performance deduplication + restore system.

This facade composes the three mechanisms of §4 on top of the storage
substrate:

* :class:`~repro.core.double_cache.DoubleHashCache` — dedup against the
  previous version(s) only, no on-disk index, no disk lookups (§4.1);
* :class:`~repro.core.chunk_filter.ActiveContainerPool` — hot chunks stay in
  dense active containers, cold residues demote to archival containers
  (§4.2);
* :class:`~repro.core.recipe_chain.RecipeChain` — one previous-recipe update
  per version, kept as a demotion map instead of a rewritten recipe;
  :meth:`HiDeStore.archival_cids` resolves every row from it (§4.3);
* :class:`~repro.core.deletion.DeletionManager` — GC-free expiry (§4.5).

The public surface mirrors :class:`repro.pipeline.system.BackupSystem`
(``backup`` / ``restore`` / reports) so benchmarks can swap schemes freely.
"""

from __future__ import annotations

import threading
import time
from itertools import islice
from typing import List, Optional

from ..chunking.base import BaseChunker
from ..chunking.seqcdc import SeqCDCChunker
from ..chunking.stream import BackupStream
from ..errors import ReproError, RestoreError, VersionNotFoundError
from ..pipeline.base import RestoreMixin, pick_rows
from ..reports import BackupReport, SystemReport
from ..restore.base import RestoreAlgorithm
from ..restore.faa import FAARestore
from ..storage.container import Container
from ..storage.container_store import ContainerStore, MemoryContainerStore
from ..storage.io_model import IOStats
from ..storage.recipe import ACTIVE_CID, MemoryRecipeStore, Recipe, RecipeEntry, RecipeStore
from ..units import CONTAINER_SIZE, RECIPE_ENTRY_SIZE
from .chunk_filter import ActiveContainerPool
from .deletion import DeletionManager, DeletionStats
from .double_cache import BATCH_DUPLICATE, DoubleHashCache
from .recipe_chain import RecipeChain

#: Chunks classified per lock acquisition: small enough that concurrent
#: restores and stats interleave at fine grain, large enough that the lock
#: overhead is invisible on the hot path.
_CLASSIFY_BATCH = 1024


class HiDeStore(RestoreMixin):
    """The complete HiDeStore backup system.

    Args:
        container_store: sealed-container backend (defaults to in-memory).
        recipe_store: recipe backend (defaults to in-memory).
        history_depth: versions of look-back in the fingerprint cache
            (1 per the paper; 2 for macos-like workloads, §4.1).
        compaction_threshold: active-container utilisation below which
            containers are merged (§4.2).
        restorer: default restore algorithm (FAA, as in the evaluation).
        container_size: container payload capacity (4 MiB).
        lookup_unit_bytes: accounting unit for the Figure 9 comparison.
            HiDeStore never probes a full on-disk index, but it does prefetch
            the previous version's recipe into T1; the paper bills that
            prefetch in the same lookup-request units as the traditional
            schemes ("the lookup overhead of HiDeStore is bounded to the
            size of one backup version", §5.2.2).
        deferred_maintenance: when true, demotion, compaction and
            previous-recipe updates are queued instead of running on the
            backup critical path — the paper's pipelined/offline processing
            (§5.4: "the process of moving chunks ... can be processed
            offline due to the pipeline implementation").  Queued work runs
            on :meth:`run_maintenance`, and automatically before restores,
            deletions, retirement and checkpoints.
        chunker: the chunker this repository's byte streams are cut with
            (default SeqCDC).  :meth:`backup` takes chunks, so the engine
            only carries it: the repository front end chunks with it and
            the checkpoint head records it, so later backups cut alike.
    """

    def __init__(
        self,
        container_store: Optional[ContainerStore] = None,
        recipe_store: Optional[RecipeStore] = None,
        history_depth: int = 1,
        compaction_threshold: float = 0.7,
        restorer: Optional[RestoreAlgorithm] = None,
        container_size: int = CONTAINER_SIZE,
        lookup_unit_bytes: int = 4096,
        deferred_maintenance: bool = False,
        chunker: Optional[BaseChunker] = None,
    ) -> None:
        self.io = IOStats()
        self.containers = (
            container_store
            if container_store is not None
            else MemoryContainerStore(container_size, self.io)
        )
        self.containers.stats = self.io
        self.recipes = recipe_store if recipe_store is not None else MemoryRecipeStore(self.io)
        self.recipes.stats = self.io
        self.cache = DoubleHashCache(history_depth)
        self.pool = ActiveContainerPool(self.containers, compaction_threshold)
        self.chain = RecipeChain(self.recipes)
        self.deletion = DeletionManager(self.containers, self.recipes)
        self.restorer = restorer if restorer is not None else FAARestore()
        self.container_size = container_size
        self.history_depth = history_depth
        self.lookup_unit_bytes = lookup_unit_bytes
        self.deferred_maintenance = deferred_maintenance
        self.chunker = chunker if chunker is not None else SeqCDCChunker()
        self._pending_maintenance: List = []  # (previous_version, cold residue)
        self._lock = threading.Lock()  # guards cache/pool/chain/deletion state
        self._next_version = 1
        self._retired = False
        self.report = SystemReport()

    # ------------------------------------------------------------------
    # Backup path (§4.1 + §4.2 + §4.3)
    # ------------------------------------------------------------------
    def backup(self, stream: BackupStream) -> BackupReport:
        """Deduplicate and store one backup version.

        The stream is consumed in batches, each classified under the
        internal lock, so a lazy stream overlaps chunking + fingerprinting
        (inline or on a shared pool) with classification.

        ``report.containers_written`` counts the archival containers
        made synchronously by *this* call (demotion inline: copies written
        and active containers adopted) — the per-version delta, matching
        :class:`~repro.pipeline.system.BackupSystem`.  Work still queued
        behind ``deferred_maintenance`` is attributed to whichever call
        later drains it.
        """
        if self._retired:
            raise ReproError("this HiDeStore instance has been retired")
        started = time.perf_counter()
        with self._lock:
            version_id = self._next_version
            self._next_version += 1

            # T1 prefetch accounting: loading the previous recipe's metadata
            # is the only "lookup" traffic HiDeStore generates (§5.2.2);
            # bounded by the size of one backup version, however many
            # versions are stored.
            prefetch_lookups = 0
            if version_id > 1 and (version_id - 1) in self.recipes:
                prefetch_bytes = self.recipes.entry_count(version_id - 1) * RECIPE_ENTRY_SIZE
                prefetch_lookups = -(-prefetch_bytes // self.lookup_unit_bytes)  # ceil
                self.io.note_index_lookup(prefetch_lookups)

        tag = stream.tag or f"v{version_id}"
        report = BackupReport(version_id, tag)
        recipe = Recipe(version_id, tag)

        # Deduplicate against the fingerprint cache only — no disk lookups.
        # Batched: one ``lookup_many`` round-trip classifies the whole
        # batch, one ``store_chunks`` call appends its uniques — the index
        # and pool are touched twice per 1024 chunks instead of per chunk,
        # while the sequential per-chunk semantics (counters, container
        # layout, recipe CIDs) are preserved exactly.
        chunks = iter(stream)
        while True:
            batch = list(islice(chunks, _CLASSIFY_BATCH))
            if not batch:
                break
            with self._lock:
                entries = self.cache.lookup_many(
                    [chunk.fingerprint for chunk in batch]
                )
                uniques = [
                    chunk for chunk, entry in zip(batch, entries) if entry is None
                ]
                # In-order batch append == identical container layout to
                # the per-chunk path, whatever the batch partitioning.
                cids = self.pool.store_chunks(uniques)
                for chunk, cid in zip(uniques, cids):
                    self.cache.insert(chunk.fingerprint, chunk.size, cid)
                for chunk, entry in zip(batch, entries):
                    if entry is None:
                        recipe_cid = ACTIVE_CID
                        report.unique_chunks += 1
                        report.stored_bytes += chunk.size
                    else:
                        if entry is BATCH_DUPLICATE:
                            # Duplicate of a unique stored earlier in this
                            # very batch; its entry exists now.
                            entry = self.cache.current_entry(chunk.fingerprint)
                        # Duplicates normally sit in active containers
                        # (recorded as ACTIVE); a reopened system's primed
                        # chunks are archival and keep their concrete CID in
                        # the recipe.
                        recipe_cid = ACTIVE_CID if entry.cid in self.pool else entry.cid
                        report.duplicate_chunks += 1
                    recipe.append(chunk.fingerprint, chunk.size, recipe_cid)
                    report.total_chunks += 1
                    report.logical_bytes += chunk.size

        with self._lock:
            containers_before = len(self.containers)
            self.pool.end_version()
            self.chain.write_fresh(recipe)

            # Filter: demote the cold residue, then keep the hot set dense.
            # With deferred maintenance this work leaves the critical path
            # (paper §5.4's pipelined/offline processing).
            cold = self.cache.end_version()
            previous = version_id - self.history_depth
            if previous >= 1:
                if self.deferred_maintenance:
                    self._pending_maintenance.append((previous, cold))
                else:
                    self._apply_maintenance(previous, cold)
                    self._compact_and_relocate()
            report.containers_written = len(self.containers) - containers_before

        report.disk_index_lookups = prefetch_lookups  # recipe prefetch only
        report.elapsed_seconds = time.perf_counter() - started

        self.report.versions += 1
        self.report.logical_bytes += report.logical_bytes
        self.report.stored_bytes += report.stored_bytes
        self.report.disk_index_lookups += report.disk_index_lookups
        self.report.index_memory_bytes = 0  # no persistent index table (§5.2.3)
        self.report.per_version.append(report)
        return report

    # ------------------------------------------------------------------
    # Offline maintenance (§5.4)
    # ------------------------------------------------------------------
    def _apply_maintenance(self, previous: int, cold) -> None:
        moved, written = self.pool.demote(cold)
        self.deletion.tag_containers(previous, written)
        self.chain.update_previous(previous, moved)

    def _compact_and_relocate(self) -> None:
        relocations = self.pool.compact()
        if relocations:
            self.cache.apply_relocations(relocations)

    def run_maintenance(self) -> int:
        """Process all queued demotions/recipe updates, then compact.

        Returns the number of versions whose maintenance was performed.
        Idempotent; a no-op when nothing is queued.
        """
        with self._lock:
            pending, self._pending_maintenance = self._pending_maintenance, []
            for previous, cold in pending:
                self._apply_maintenance(previous, cold)
            if pending:
                self._compact_and_relocate()
        return len(pending)

    @property
    def pending_maintenance(self) -> int:
        """Number of versions whose filter work is still queued."""
        return len(self._pending_maintenance)

    # ------------------------------------------------------------------
    # Reopening a retired store
    # ------------------------------------------------------------------
    def prime_from_recipe(self, version_id: Optional[int] = None) -> int:
        """Resume a retired store (as retired, or loaded from the checkpoint
        saved after :meth:`retire`): rebuild T1 from the newest recipe.

        The paper prefetches the previous version's recipe into T1 when a
        new version starts (§4.1); this is the cross-session equivalent.
        The primed entries carry their archival CIDs (the retired hot set
        lives in archival containers), so subsequent versions deduplicate
        exactly against the last version without re-reading any index.

        Returns the number of entries primed.
        """
        if version_id is None:
            version_id = self.recipes.latest_version()
        if version_id is None:
            raise VersionNotFoundError("no recipes to prime from")
        entries = self.recipes.peek(version_id).entries
        primed = 0
        for entry, cid in zip(entries, self.archival_cids(version_id, entries, self.recipes.peek)):
            if cid <= 0:
                raise ReproError(
                    f"prime_from_recipe: R_{version_id} has rows with no archival "
                    "location; retire() the store and save a checkpoint before "
                    "closing it (the demotion maps live in the checkpoint)"
                )
            self.cache.insert(entry.fingerprint, entry.size, cid)
            primed += 1
        self.cache.end_version()  # the primed table becomes T1
        self._next_version = max(self._next_version, version_id + 1)
        self._retired = False
        return primed

    # ------------------------------------------------------------------
    # Restore path (§4.4) — the shared RestoreMixin implementation over
    # three HiDeStore-specific hooks.
    # ------------------------------------------------------------------
    def _restore_rows(self, version_id, load, rows=None, metrics=None):
        """Drain queued filter work, decode ``R_version`` once and resolve the
        rows ``rows`` picks, writing nothing.  A row nothing resolves (a
        recipe replaced behind the engine) rebuilds the index once, then is a
        :class:`RestoreError`; ``restore.index_builds`` counts every build."""
        self.run_maintenance()
        entries = pick_rows(load(version_id), rows)
        with self._lock:
            builds = self.chain.stats.index_builds
            try:
                return self._resolve_restore_entries(entries, version_id, load)
            except RestoreError:
                self.chain.index = None
                self.chain.archival_index(load)
                return self._resolve_restore_entries(entries, version_id, load)
            finally:
                if metrics is not None and self.chain.stats.index_builds > builds:
                    metrics.inc("restore.index_builds", self.chain.stats.index_builds - builds)

    def _read_container(self, cid: int) -> Container:
        if cid in self.pool:
            return self.pool.read(cid)
        return self.containers.read(cid)

    def _read_container_chunks(self, cid, fingerprints):
        if cid in self.pool:
            return None  # pool containers are in memory; no ranged path
        return super()._read_container_chunks(cid, fingerprints)

    def archival_cids(self, version_id: int, entries: List[RecipeEntry], load) -> List[int]:
        """The one resolution rule (``verify``, priming; restores apply it in
        :meth:`_resolve_restore_entries`' single pass): per row of
        ``R_version``, its own positive CID; else ``demoted[version_id]``'s;
        else the chain index's, if held at or after ``version_id`` (built
        through ``load`` on first need; the newest skips it); else ``0``, the
        active pool (DESIGN §1.1)."""
        own = self.chain.demoted.get(version_id, {})
        archival = {} if version_id >= self._next_version - 1 else None
        cids: List[int] = []
        for entry in entries:
            cid = entry.cid
            if cid <= 0:
                cid = own.get(entry.fingerprint, 0)
                if not cid:
                    if archival is None:
                        archival = self.chain.archival_index(load)
                    holder, cid = archival.get(entry.fingerprint, (0, 0))
                    if holder < version_id:  # no version from version_id on has it archival
                        cid = 0
            cids.append(cid)
        return cids

    def _resolve_restore_entries(
        self, entries: List[RecipeEntry], version_id: int, load
    ) -> List[RecipeEntry]:
        """:meth:`archival_cids`'s rule in one pass (lock held): a row whose
        own CID is concrete is kept as it is; any other becomes a new entry
        at its archival CID, else at its active one from ``pool.location``."""
        own = self.chain.demoted.get(version_id, {})
        archival = {} if version_id >= self._next_version - 1 else None
        location = self.pool.location
        resolved: List[RecipeEntry] = []
        append = resolved.append
        for entry in entries:
            if entry.cid > 0:
                append(entry)
                continue
            fp = entry.fingerprint
            cid = own.get(fp, 0)
            if not cid:
                if archival is None:
                    archival = self.chain.archival_index(load)
                holder, cid = archival.get(fp, (0, 0))
                if holder < version_id:
                    cid = location.get(fp)
                    if cid is None:
                        raise RestoreError(
                            f"chunk {fp.hex()[:8]} of version {version_id} "
                            "is neither archival in a newer recipe nor active"
                        )
            append(RecipeEntry(fp, entry.size, cid))
        return resolved

    # ------------------------------------------------------------------
    # Deletion (§4.5)
    # ------------------------------------------------------------------
    @property
    def demotion_horizon(self) -> int:
        """Newest version whose cold set has been demoted."""
        if self._retired:
            return self._next_version - 1
        return self._next_version - 1 - self.history_depth

    def delete_oldest(self) -> DeletionStats:
        """Expire the oldest retained version (GC-free)."""
        self.run_maintenance()
        versions = self.recipes.version_ids()
        if not versions:
            raise VersionNotFoundError("no versions to delete")
        stats = self.deletion.delete_version(versions[0], self.demotion_horizon)
        with self._lock:
            self.chain.expire(versions[0])
        return stats

    # ------------------------------------------------------------------
    # Retirement: demote everything, freeze the system
    # ------------------------------------------------------------------
    def retire(self) -> None:
        """Demote all remaining hot chunks.

        After retirement the whole store is archival: any version can be
        restored or (in order) deleted, but no further backups are accepted.

        Where the drained chunks went is recorded in the demotion maps, in
        memory like every update's, so the stores alone are not
        self-contained: checkpoint a retired store (``save_checkpoint``)
        before closing it.  A reopen without one cannot resolve those rows.
        """
        if self._retired:
            return
        self.run_maintenance()
        newest = self.recipes.latest_version()
        drained = self.cache.drain()
        moved, written = self.pool.demote(drained)
        if newest is not None:
            self.deletion.tag_containers(newest, written)
            # The versions no previous-recipe update has reached yet: the
            # newest, and with history_depth > 1 the ones still cached too.
            for version in self.recipes.version_ids()[-self.history_depth :]:
                rows = dict.fromkeys(e.fingerprint for e in self.recipes.read(version) if e.cid <= 0)
                if not rows.keys() <= moved.keys():
                    raise RestoreError(f"retire: R_{version} has chunks with no archival location")
                self.chain.update_previous(version, {fp: moved[fp] for fp in rows})
        self._retired = True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def dedup_ratio(self) -> float:
        return self.report.dedup_ratio

    def version_ids(self) -> List[int]:
        return self.recipes.version_ids()

    def stored_bytes(self) -> int:
        """Physical payload bytes (archival store + active pool)."""
        return self.containers.stored_bytes() + self.pool.hot_bytes()

    @property
    def transient_cache_bytes(self) -> int:
        """Scratch memory of T1/T2 (bounded by one-two versions, §4.1)."""
        return self.cache.transient_bytes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"HiDeStore(versions={self.report.versions}, "
            f"dedup_ratio={self.dedup_ratio:.3f}, "
            f"active_containers={self.pool.container_count()})"
        )
