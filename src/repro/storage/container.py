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


class Container:
    """An append-oriented chunk container: an entry index over one payload.

    :attr:`index` is the hash table, ``fingerprint -> (offset, size)`` in
    offset order; :attr:`payload` views the one buffer those offsets
    address, or is ``None`` for a metadata-only container (simulated
    streams).  A decoded blob's buffer is the blob's payload region; a
    container being filled owns a ``bytearray`` that :meth:`put` appends
    to.  A buffer a reader holds a view of is never resized: an append
    that finds it viewed copies it into a new buffer and leaves the viewed
    one as it was.  Nothing ever writes over a row's bytes (:meth:`remove`
    only drops the row and leaves a hole), so every view stays valid and
    unchanged however the container changes afterwards.

    Args:
        container_id: globally unique positive integer.
        capacity: payload capacity in bytes (4 MiB by default, as in the
            paper; all compared schemes use the same size for fairness).
    """

    __slots__ = ("container_id", "capacity", "index", "_buffer", "_used", "_cursor", "sealed")

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
        self.index: Dict[bytes, Tuple[int, int]] = {}
        #: The chunk bytes the index addresses, holes included, or ``None``.
        self._buffer = None
        self._used = 0  # live payload bytes
        self._cursor = 0  # append offset (never reused: removals leave holes)
        self.sealed = False

    @classmethod
    def indexed(
        cls, container_id: int, capacity: int, index: Dict[bytes, Tuple[int, int]],
        payload: Optional[memoryview], written: int,
    ) -> "Container":
        """A container over a decoded blob: ``index`` in offset order over
        ``written`` back-to-back bytes of ``payload`` (``None``: no data)."""
        container = cls(container_id, capacity)
        if written > capacity:
            raise ContainerFullError(
                f"container {container_id}: {written} B of chunks exceed {capacity}"
            )
        container.index, container._buffer = index, payload
        container._used = container._cursor = written
        return container

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def fits(self, size: int) -> bool:
        """Whether a chunk of ``size`` bytes can be appended right now.

        Freed space from removed chunks does *not* count: the free space is
        not contiguous (Fig. 6), and only a merge into a fresh container
        reclaims it.
        """
        return self._cursor + size <= self.capacity

    def add(self, chunk: Chunk) -> int:
        """Append a chunk; returns its offset.  Raises if sealed, full or duplicate."""
        return self.put(chunk.fingerprint, chunk.size, chunk.data)

    def put(self, fingerprint: bytes, size: int, data=None) -> int:
        """:meth:`add` without building a :class:`Chunk`; ``data`` is copied
        into the container's buffer.  A container holds chunks either all
        with data or all without."""
        if self.sealed:
            raise StorageError(f"container {self.container_id} is sealed")
        if fingerprint in self.index:
            raise StorageError(
                f"container {self.container_id} already holds chunk {fingerprint.hex()[:8]}"
            )
        if not self.fits(size):
            raise ContainerFullError(
                f"container {self.container_id}: chunk of {size} B does not "
                f"fit (cursor {self._cursor}/{self.capacity})"
            )
        offset, buffer = self._cursor, self._buffer
        if offset and (data is None) != (buffer is None):
            raise StorageError(
                f"container {self.container_id}: chunks with and without data do not mix"
            )
        if data is not None:
            if len(data) != size:
                raise StorageError(
                    f"chunk {fingerprint.hex()[:8]}: {len(data)} B of data for size {size}"
                )
            if buffer is None:
                self._buffer = bytearray(data)
            elif not isinstance(buffer, bytearray):
                raise StorageError(
                    f"container {self.container_id} is a decoded blob: it takes no data"
                )
            else:
                try:
                    buffer += data
                except BufferError:  # a reader holds a view: leave that buffer to it
                    self._buffer = buffer + data
        self.index[fingerprint] = (offset, size)
        self._cursor += size
        self._used += size
        return offset

    def remove(self, fingerprint: bytes) -> Chunk:
        """Drop a chunk from the metadata table, leaving a hole in the payload.

        Used when HiDeStore demotes cold chunks out of an active container.
        Returns the chunk, its data a view of the hole.
        """
        chunk = self.get_chunk(fingerprint)
        del self.index[fingerprint]
        self._used -= chunk.size
        return chunk

    def seal(self) -> None:
        """Freeze the container (archival state)."""
        self.sealed = True

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    @property
    def payload(self) -> Optional[memoryview]:
        """A read-only view of the buffer the index addresses, or ``None``."""
        buffer = self._buffer
        return None if buffer is None else memoryview(buffer).toreadonly()

    def __contains__(self, fingerprint: bytes) -> bool:
        return fingerprint in self.index

    def get_chunk(self, fingerprint: bytes) -> Chunk:
        """Materialise a :class:`Chunk` for a stored fingerprint."""
        try:
            offset, size = self.index[fingerprint]
        except KeyError:
            raise UnknownChunkError(
                f"container {self.container_id} does not hold {fingerprint.hex()[:8]}"
            ) from None
        payload = self.payload
        data = None if payload is None else payload[offset : offset + size]
        return Chunk(fingerprint, size, data)

    def fingerprints(self) -> List[bytes]:
        return list(self.index)

    def chunks(self) -> Iterator[Chunk]:
        """Iterate live chunks in offset order (the physical layout)."""
        for fp, data in self.payloads():
            yield Chunk(fp, self.index[fp][1], data)

    def payloads(self) -> Iterator[Tuple[bytes, Optional[memoryview]]]:
        """``(fingerprint, data)`` of every chunk, in offset order."""
        payload = self.payload
        return (
            (fp, None if payload is None else payload[at : at + size])
            for fp, (at, size) in self.index.items()
        )

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def chunk_count(self) -> int:
        return len(self.index)

    @property
    def used(self) -> int:
        """Live payload bytes (holes excluded)."""
        return self._used

    @property
    def written(self) -> int:
        """Bytes ever appended (cursor position, holes included)."""
        return self._cursor

    @property
    def utilization(self) -> float:
        """Live bytes over capacity — the paper's sparseness measure (§4.2)."""
        return self._used / self.capacity

    @property
    def is_empty(self) -> bool:
        return not self.index

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Container(id={self.container_id}, chunks={self.chunk_count}, "
            f"used={self._used}/{self.capacity}, sealed={self.sealed})"
        )
