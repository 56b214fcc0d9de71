"""HiDeStore's chunk filter: active containers, demotion, compaction (§4.2).

Unique chunks are staged in **active containers**.  After each version the
cold residue of the fingerprint cache is *demoted*: removed from the active
containers and written sequentially into sealed **archival containers**
(tagged with the version whose expiry will free them, enabling §4.5's
GC-free deletion).  Where an archival container would hold exactly the
chunks of one active container that never lost a chunk, that container is
*adopted* instead: it turns archival where it stands, with no byte copied
(the move §5.4 calls offline, done by not moving).  Demotion leaves holes,
so sparse active containers — utilisation below a threshold — are merged
and compacted so the hot set stays physically dense (Figure 6).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from ..chunking.stream import Chunk
from ..errors import StorageError, UnknownContainerError
from ..storage.container import Container
from ..storage.container_store import BackendContainerStore
from .double_cache import CacheEntry


@dataclass
class FilterStats:
    """Accounting for the demotion/compaction machinery (Fig. 12 inputs)."""

    #: Cold chunks copied into new archival containers (adopted ones stay put).
    cold_chunks_moved: int = 0
    cold_bytes_moved: int = 0
    archival_containers_written: int = 0
    containers_adopted: int = 0
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
            relocated; a checkpoint also writes each one to the store once.
        compaction_threshold: utilisation below which an active container is
            considered sparse and eligible for merging (§4.2).
    """

    def __init__(self, store: BackendContainerStore, compaction_threshold: float = 0.7) -> None:
        if not (0.0 <= compaction_threshold <= 1.0):
            raise StorageError("compaction_threshold must be in [0, 1]")
        self.store = store
        self.compaction_threshold = compaction_threshold
        self._active: Dict[int, Container] = {}
        self._open: Optional[Container] = None
        #: fp -> active container id, for resolving ACTIVE_CID recipe entries.
        self.location: Dict[bytes, int] = {}
        #: Checkpoint tracking: cid -> head entry of the container's object
        #: in the store.  Written once: a container grows only while it is
        #: ``_open`` or a fresh compaction target, both over by the next
        #: version boundary; after that demotion only shrinks its live set.
        #: Maintained by :mod:`repro.core.checkpoint` alone.
        self.persisted: Dict[int, Dict] = {}
        #: Parts a pre-v5 head stored active containers in: the first v5
        #: save writes those containers as objects and unnames the parts.
        self.legacy_parts: List[str] = []
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
    def demote(self, cold: Mapping[bytes, CacheEntry]) -> Tuple[Dict[bytes, int], List[int]]:
        """Move cold chunks from active to archival containers.

        The cold chunks are packed, in ``cold`` order, into archival
        containers of the store's capacity.  A container that would receive
        exactly the chunks of one intact active container (see
        :meth:`adoptable`) is not written: that active container is
        *adopted* — the store makes it archival where it stands.  Either
        way every chunk lands in the archival container the copy would have
        put it in, so the layout (and every restore's container reads) is
        the same; only the adopted container keeps its own CID.

        Args:
            cold: fingerprint -> cache entry (the T1 residue); the caller's
                deletion manager tags what it returns (§4.5).

        Returns:
            ``(moved, archival_cids)``: the archival CID per fingerprint, and
            the archival containers it made (written or adopted), in order.
        """
        started = time.perf_counter()
        target: Dict[bytes, int] = {}
        groups: List[List[bytes]] = []  # the archival containers, as cold chunks
        fill = capacity = self.store.capacity
        for fp, entry in cold.items():
            if entry.cid not in self._active:
                if entry.cid in self.store:
                    # Already archival: a reopened system primed its cache
                    # from a retired recipe.  Nothing to move; just report
                    # the existing location so recipe updates resolve.
                    target[fp] = entry.cid
                    continue
                raise UnknownContainerError(
                    f"cold chunk {fp.hex()[:8]} claims active container {entry.cid}, "
                    "which is not in the pool"
                )
            if fill + entry.size > capacity:
                groups.append([])
                fill = 0
            groups[-1].append(fp)
            fill += entry.size
        written: List[int] = []
        active, forget = self._active, self.location.pop
        for group in groups:
            container = active[cold[group[0]].cid]
            if self.adoptable(container, group, cold):
                if container.container_id in self.persisted:
                    self.store.adopt(container)  # its object is these chunks
                else:
                    self.store.write(container)
                del active[container.container_id]
                archive = container
                self.stats.containers_adopted += 1
            else:
                archive = self.store.allocate()
                for fp in group:
                    archive.add(active[cold[fp].cid].remove(fp))
                self.store.write(archive)
                self.stats.archival_containers_written += 1
                self.stats.cold_chunks_moved += len(group)
                self.stats.cold_bytes_moved += archive.used
            cid = archive.container_id
            for fp in group:
                forget(fp, None)
                target[fp] = cid
            written.append(cid)
        # Drop active containers that demotion emptied entirely.
        for cid in [cid for cid, c in active.items() if c.is_empty]:
            del active[cid]
        self.stats.move_seconds += time.perf_counter() - started
        return target, written

    @staticmethod
    def adoptable(
        container: Container, group: List[bytes], cold: Mapping[bytes, CacheEntry]
    ) -> bool:
        """Whether ``group`` — one archival container's worth of cold chunks
        — is exactly ``container``, which never lost a chunk (so its stored
        object, if a checkpoint wrote one, holds exactly those chunks)."""
        cid = container.container_id
        return (
            container.chunk_count == len(group)
            and container.used == container.written
            and all(cold[fp].cid == cid for fp in group)
        )

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
        sparse.reverse()  # popped fullest first: a drained container's buffer goes at once
        relocations: Dict[bytes, int] = {}
        target: Optional[Container] = None
        merged = 0
        while sparse:
            container = sparse.pop()
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
