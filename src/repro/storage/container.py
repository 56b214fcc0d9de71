"""Containers: the 4 MiB on-disk unit of chunk storage (paper §2.1, Fig. 6).

A container holds the payloads of many chunks plus a metadata section — the
container ID, used size, and a per-container hash table mapping fingerprints
to (offset, size) of each stored chunk.  Reading any chunk from disk costs a
whole-container read, which is why physical locality dominates restore
performance.

HiDeStore distinguishes *active* containers (mutable: hot chunks are inserted
and cold ones removed, then sparse containers are merged) from *archival*
containers (write-once, like a traditional system's containers).  Both are
the same class here; mutability is a policy of the owning layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from ..errors import ContainerFullError, StorageError, UnknownChunkError
from ..units import CONTAINER_SIZE
from ..chunking.stream import Chunk


@dataclass(frozen=True)
class ChunkSlot:
    """Location and payload of one chunk inside a container."""

    offset: int
    size: int
    data: Optional[bytes] = None


class Container:
    """An append-oriented chunk container with a metadata hash table.

    Args:
        container_id: globally unique positive integer.
        capacity: payload capacity in bytes (4 MiB by default, as in the
            paper; all compared schemes use the same size for fairness).
    """

    __slots__ = ("container_id", "capacity", "_slots", "_used", "_cursor", "sealed", "payload")

    def __init__(self, container_id: int, capacity: int = CONTAINER_SIZE) -> None:
        if container_id <= 0:
            raise StorageError(
                f"container IDs must be positive (got {container_id}); "
                "0 and negatives are reserved recipe markers"
            )
        if capacity <= 0:
            raise StorageError("container capacity must be positive")
        self.container_id = container_id
        self.capacity = capacity
        self._slots: Dict[bytes, ChunkSlot] = {}
        self._used = 0  # live payload bytes
        self._cursor = 0  # append offset (never reused without compaction)
        self.sealed = False
        #: A decoded blob's payload region while slot offsets index it (slot
        #: ``data`` are views into it), else ``None``.
        self.payload: Optional[memoryview] = None

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def fits(self, size: int) -> bool:
        """Whether a chunk of ``size`` bytes can be appended right now.

        Freed space from removed chunks does *not* count until
        :meth:`compact` runs — the free space is not contiguous (Fig. 6).
        """
        return self._cursor + size <= self.capacity

    def add(self, chunk: Chunk) -> ChunkSlot:
        """Append a chunk; returns its slot.  Raises if sealed, full or duplicate."""
        return self.put(chunk.fingerprint, chunk.size, chunk.data)

    def put(self, fingerprint: bytes, size: int, data=None) -> ChunkSlot:
        """:meth:`add` without building a :class:`Chunk` (the blob decoder's path)."""
        if self.sealed:
            raise StorageError(f"container {self.container_id} is sealed")
        if fingerprint in self._slots:
            raise StorageError(
                f"container {self.container_id} already holds chunk {fingerprint.hex()[:8]}"
            )
        if not self.fits(size):
            raise ContainerFullError(
                f"container {self.container_id}: chunk of {size} B does not "
                f"fit (cursor {self._cursor}/{self.capacity})"
            )
        slot = ChunkSlot(self._cursor, size, data)
        self._slots[fingerprint] = slot
        self._cursor += size
        self._used += size
        self.payload = None
        return slot

    def remove(self, fingerprint: bytes) -> ChunkSlot:
        """Drop a chunk from the metadata table, leaving a hole in the payload.

        Used when HiDeStore demotes cold chunks out of an active container.
        The hole is reclaimed only by :meth:`compact`.
        """
        try:
            slot = self._slots.pop(fingerprint)
        except KeyError:
            raise UnknownChunkError(
                f"container {self.container_id} does not hold {fingerprint.hex()[:8]}"
            ) from None
        self._used -= slot.size
        return slot

    def compact(self) -> int:
        """Rewrite live chunks contiguously; returns bytes reclaimed."""
        reclaimed = self._cursor - self._used
        self.payload = None
        offset = 0
        rebuilt: Dict[bytes, ChunkSlot] = {}
        for fp, slot in self._slots.items():
            rebuilt[fp] = ChunkSlot(offset, slot.size, slot.data)
            offset += slot.size
        self._slots = rebuilt
        self._cursor = offset
        return reclaimed

    def seal(self) -> None:
        """Freeze the container (archival state)."""
        self.sealed = True

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def __contains__(self, fingerprint: bytes) -> bool:
        return fingerprint in self._slots

    def get(self, fingerprint: bytes) -> ChunkSlot:
        try:
            return self._slots[fingerprint]
        except KeyError:
            raise UnknownChunkError(
                f"container {self.container_id} does not hold {fingerprint.hex()[:8]}"
            ) from None

    def get_chunk(self, fingerprint: bytes) -> Chunk:
        """Materialise a :class:`Chunk` for a stored fingerprint."""
        slot = self.get(fingerprint)
        return Chunk(fingerprint, slot.size, slot.data)

    def fingerprints(self) -> List[bytes]:
        return list(self._slots.keys())

    def chunks(self) -> Iterator[Chunk]:
        """Iterate live chunks in offset order (the physical layout)."""
        for fp, slot in sorted(self._slots.items(), key=lambda kv: kv[1].offset):
            yield Chunk(fp, slot.size, slot.data)

    def items(self) -> Iterator[Tuple[bytes, ChunkSlot]]:
        return iter(self._slots.items())

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def chunk_count(self) -> int:
        return len(self._slots)

    @property
    def used(self) -> int:
        """Live payload bytes (holes excluded)."""
        return self._used

    @property
    def written(self) -> int:
        """Bytes ever appended and not yet compacted away (cursor position)."""
        return self._cursor

    @property
    def utilization(self) -> float:
        """Live bytes over capacity — the paper's sparseness measure (§4.2)."""
        return self._used / self.capacity

    @property
    def is_empty(self) -> bool:
        return not self._slots

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Container(id={self.container_id}, chunks={self.chunk_count}, "
            f"used={self._used}/{self.capacity}, sealed={self.sealed})"
        )
