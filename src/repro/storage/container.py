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

from typing import Dict, Iterator, List, Optional, Tuple

from ..errors import ContainerFullError, StorageError, UnknownChunkError
from ..units import CONTAINER_SIZE
from ..chunking.stream import Chunk


class ChunkSlot:
    """Location and payload of one chunk inside a container."""

    __slots__ = ("offset", "size", "data")

    def __init__(self, offset: int, size: int, data: Optional[bytes] = None) -> None:
        self.offset = offset
        self.size = size
        self.data = data

    def __repr__(self) -> str:
        return f"ChunkSlot(offset={self.offset}, size={self.size})"


class Container:
    """An append-oriented chunk container with a metadata hash table.

    A container decoded from a stored blob may hold its table as an
    :attr:`index` (``fingerprint -> (offset, size)`` into :attr:`payload`)
    instead of slots: reads then build a :class:`ChunkSlot` only for what
    they touch, and the first mutation turns the index into slots.

    Args:
        container_id: globally unique positive integer.
        capacity: payload capacity in bytes (4 MiB by default, as in the
            paper; all compared schemes use the same size for fairness).
    """

    __slots__ = (
        "container_id", "capacity", "_slots", "_used", "_cursor", "sealed", "payload", "index",
    )

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
        #: A decoded blob's table, ``fingerprint -> (offset, size)`` into
        #: :attr:`payload` in offset order, while no slot has been built
        #: from it (the table is then this, not ``_slots``); else ``None``.
        self.index: Optional[Dict[bytes, Tuple[int, int]]] = None

    @classmethod
    def indexed(
        cls, container_id: int, capacity: int, index: Dict[bytes, Tuple[int, int]],
        payload: memoryview,
    ) -> "Container":
        """A container over a decoded blob: ``index`` in offset order, every
        chunk's bytes back to back in ``payload``."""
        container = cls(container_id, capacity)
        if len(payload) > capacity:
            raise ContainerFullError(
                f"container {container_id}: {len(payload)} B of chunks exceed {capacity}"
            )
        container.index, container.payload = index, payload
        container._used = container._cursor = len(payload)
        return container

    def _table(self) -> Dict[bytes, ChunkSlot]:
        """The slots, built from :attr:`index` first if it holds the table."""
        if self.index is not None:
            self._slots = dict(self.items())
            self.index = None
        return self._slots

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
        slots = self._table()
        if fingerprint in slots:
            raise StorageError(
                f"container {self.container_id} already holds chunk {fingerprint.hex()[:8]}"
            )
        if not self.fits(size):
            raise ContainerFullError(
                f"container {self.container_id}: chunk of {size} B does not "
                f"fit (cursor {self._cursor}/{self.capacity})"
            )
        slot = ChunkSlot(self._cursor, size, data)
        slots[fingerprint] = slot
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
            slot = self._table().pop(fingerprint)
        except KeyError:
            raise UnknownChunkError(
                f"container {self.container_id} does not hold {fingerprint.hex()[:8]}"
            ) from None
        self._used -= slot.size
        return slot

    def compact(self) -> int:
        """Rewrite live chunks contiguously; returns bytes reclaimed."""
        reclaimed = self._cursor - self._used
        offset = 0
        rebuilt: Dict[bytes, ChunkSlot] = {}
        for fp, slot in self._table().items():
            rebuilt[fp] = ChunkSlot(offset, slot.size, slot.data)
            offset += slot.size
        self.payload = None
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
        return fingerprint in (self._slots if self.index is None else self.index)

    def get(self, fingerprint: bytes) -> ChunkSlot:
        try:
            if self.index is None:
                return self._slots[fingerprint]
            offset, size = self.index[fingerprint]
        except KeyError:
            raise UnknownChunkError(
                f"container {self.container_id} does not hold {fingerprint.hex()[:8]}"
            ) from None
        return ChunkSlot(offset, size, self.payload[offset : offset + size])

    def get_chunk(self, fingerprint: bytes) -> Chunk:
        """Materialise a :class:`Chunk` for a stored fingerprint."""
        slot = self.get(fingerprint)
        return Chunk(fingerprint, slot.size, slot.data)

    def fingerprints(self) -> List[bytes]:
        return list(self._slots if self.index is None else self.index)

    def chunks(self) -> Iterator[Chunk]:
        """Iterate live chunks in offset order (the physical layout)."""
        for fp, slot in sorted(self.items(), key=lambda kv: kv[1].offset):
            yield Chunk(fp, slot.size, slot.data)

    def items(self) -> Iterator[Tuple[bytes, ChunkSlot]]:
        if self.index is None:
            return iter(self._slots.items())
        payload = self.payload
        return (
            (fp, ChunkSlot(offset, size, payload[offset : offset + size]))
            for fp, (offset, size) in self.index.items()
        )

    def payloads(self) -> Iterator[Tuple[bytes, Optional[bytes]]]:
        """``(fingerprint, data)`` of every chunk, building no slot."""
        if self.index is None:
            return ((fp, slot.data) for fp, slot in self._slots.items())
        payload = self.payload
        return ((fp, payload[at : at + size]) for fp, (at, size) in self.index.items())

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def chunk_count(self) -> int:
        return len(self._slots if self.index is None else self.index)

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
        return not self.chunk_count

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Container(id={self.container_id}, chunks={self.chunk_count}, "
            f"used={self._used}/{self.capacity}, sealed={self.sealed})"
        )
