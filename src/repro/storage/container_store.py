"""Container stores: where sealed containers live, with read accounting.

Several backends share one interface:

* :class:`MemoryContainerStore` — keeps containers as Python objects; the
  default for simulation and benchmarks (every read still bills
  :class:`~repro.storage.io_model.IOStats`, which is what the paper's
  metrics are computed from).
* :class:`BackendContainerStore` — serialises containers as named
  immutable blobs on any :class:`~repro.storage.backend.StorageBackend`
  (``file://``, ``sqlite://``, ``s3://``).  On backends that prefer
  ranged reads it can fetch only the chunk ranges a restore plan needs
  (:meth:`~BackendContainerStore.read_chunks`) instead of whole blobs.
* :class:`FileContainerStore` — the historical one-file-per-container
  layout, re-expressed as :class:`BackendContainerStore` over a
  ``file://`` backend; byte-identical to what it always wrote.

Container IDs are allocated by the store, strictly increasing from 1.
ID ``0`` and negative IDs never name containers — HiDeStore's recipes use
them as "in active containers" / "see recipe R_n" markers.
"""

from __future__ import annotations

import struct
import time
import zlib
from abc import ABC, abstractmethod
from typing import Dict, Iterator, List, Optional

from ..errors import (
    ObjectMissingError,
    ReproError,
    StorageError,
    UnknownChunkError,
    UnknownContainerError,
)
from ..observability import MetricsRegistry, get_registry
from ..units import CONTAINER_SIZE, FINGERPRINT_SIZE
from .backend import FileBackend, StorageBackend, wrap_backend
from .container import Container
from .io_model import IOStats


class ContainerStore(ABC):
    """Abstract sealed-container repository with I/O accounting.

    **ID-allocation contract** (part of the backend protocol; exercised by
    checkpoint reload and by ``tests/test_storage_backend.py``):

    * :meth:`allocate` hands out strictly increasing IDs starting at 1;
    * :attr:`next_id` always names the ID the next :meth:`allocate`
      returns;
    * :meth:`reserve_ids(upto) <reserve_ids>` guarantees
      ``next_id == max(next_id, upto + 1)`` — it never moves IDs
      backwards, so replaying a stale checkpoint cannot re-issue an ID a
      stored container already uses;
    * stores that can discover existing containers on open (every
      persistent backend) must resume allocation above the highest stored
      ID, even without a checkpoint.
    """

    def __init__(self, capacity: int = CONTAINER_SIZE, stats: Optional[IOStats] = None) -> None:
        self.capacity = capacity
        self.stats = stats if stats is not None else IOStats()
        self._next_id = 1

    # ------------------------------------------------------------------
    def allocate(self) -> Container:
        """Create a fresh, open container with the next global ID."""
        container = Container(self._next_id, self.capacity)
        self._next_id += 1
        return container

    @property
    def next_id(self) -> int:
        """The ID the next :meth:`allocate` call will hand out."""
        return self._next_id

    def reserve_ids(self, upto: int) -> None:
        """Ensure future allocations start above ``upto`` (checkpoint reload)."""
        if upto >= self._next_id:
            self._next_id = upto + 1

    # ------------------------------------------------------------------
    @abstractmethod
    def write(self, container: Container) -> None:
        """Seal and persist a container (bills one container write)."""

    @abstractmethod
    def read(self, container_id: int) -> Container:
        """Fetch a container by ID (bills one container read)."""

    @abstractmethod
    def delete(self, container_id: int) -> None:
        """Remove a container (expired-version reclamation)."""

    @abstractmethod
    def __contains__(self, container_id: int) -> bool: ...

    @abstractmethod
    def container_ids(self) -> List[int]: ...

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.container_ids())

    def stored_bytes(self) -> int:
        """Total live payload bytes across all stored containers (unbilled)."""
        return sum(self.peek(cid).used for cid in self.container_ids())

    def peek(self, container_id: int) -> Container:
        """Fetch a container *without* billing a read (metrics/test use only)."""
        raise NotImplementedError

    def iter_containers(self) -> Iterator[Container]:
        """Iterate containers without billing reads (metrics/test use only)."""
        for cid in self.container_ids():
            yield self.peek(cid)


class MemoryContainerStore(ContainerStore):
    """In-memory store: the simulation substrate used by all benchmarks."""

    def __init__(self, capacity: int = CONTAINER_SIZE, stats: Optional[IOStats] = None) -> None:
        super().__init__(capacity, stats)
        self._containers: Dict[int, Container] = {}

    def write(self, container: Container) -> None:
        if container.container_id in self._containers:
            raise StorageError(f"container {container.container_id} already stored")
        container.seal()
        self._containers[container.container_id] = container
        self.stats.note_container_write(container.used)

    def read(self, container_id: int) -> Container:
        try:
            container = self._containers[container_id]
        except KeyError:
            raise UnknownContainerError(f"no container {container_id}") from None
        self.stats.note_container_read(container.used)
        return container

    def peek(self, container_id: int) -> Container:
        try:
            return self._containers[container_id]
        except KeyError:
            raise UnknownContainerError(f"no container {container_id}") from None

    def delete(self, container_id: int) -> None:
        if self._containers.pop(container_id, None) is None:
            raise UnknownContainerError(f"no container {container_id}")

    def __contains__(self, container_id: int) -> bool:
        return container_id in self._containers

    def container_ids(self) -> List[int]:
        return sorted(self._containers)


_MAGIC = b"HDSC"
_HEADER = struct.Struct("<4sIIQ")  # magic, container_id, chunk_count, capacity
_ENTRY = struct.Struct(f"<{FINGERPRINT_SIZE}sIIB")  # fp, offset, size, has_data


def pack_container(container: Container) -> bytes:
    """Serialise a container (metadata + payload region) to bytes."""
    entries = []
    payload = bytearray()
    for fp, slot in container.items():
        has_data = 1 if slot.data is not None else 0
        entries.append(_ENTRY.pack(fp, slot.offset, slot.size, has_data))
        if slot.data is not None:
            payload.extend(slot.data)
    return (
        _HEADER.pack(_MAGIC, container.container_id, container.chunk_count, container.capacity)
        + b"".join(entries)
        + bytes(payload)
    )


def unpack_container(blob: bytes, expected_id: Optional[int] = None) -> Container:
    """Parse :func:`pack_container` output back into an (unsealed) container.

    Chunks are re-appended in offset order, so holes left by removals are
    compacted away on load; the logical contents are identical.
    """
    from ..chunking.stream import Chunk

    magic, cid, count, capacity = _HEADER.unpack_from(blob, 0)
    if magic != _MAGIC or (expected_id is not None and cid != expected_id):
        raise StorageError("corrupt container blob")
    container = Container(cid, capacity)
    offset = _HEADER.size
    metas = []
    for _ in range(count):
        fp, chunk_offset, size, has_data = _ENTRY.unpack_from(blob, offset)
        metas.append((fp, chunk_offset, size, has_data))
        offset += _ENTRY.size
    payload_base = offset
    cursor = 0
    for fp, chunk_offset, size, has_data in sorted(metas, key=lambda m: m[1]):
        data = None
        if has_data:
            data = blob[payload_base + cursor : payload_base + cursor + size]
            cursor += size
        container.add(Chunk(fp, size, data))
    return container


_COMPRESSED_MAGIC = b"HDSZ"


def decode_container(blob: bytes, expected_id: int) -> Container:
    """Parse a stored container object, plain or zlib-wrapped.

    Every way a damaged blob can fail to parse — bad magic or ID, a short
    entry table, a payload region cut short, a broken zlib stream — raises
    :class:`StorageError`.
    """
    try:
        if blob[:4] == _COMPRESSED_MAGIC:
            blob = zlib.decompress(blob[4:])
        return unpack_container(blob, expected_id=expected_id)
    except (ReproError, struct.error, zlib.error, IndexError) as exc:
        raise StorageError(str(exc) or type(exc).__name__) from exc


#: Coalesce ranged chunk reads whose payload gap is below this many bytes:
#: one slightly larger GET beats two round trips to an object store.
_COALESCE_GAP = 64 * 1024


class BackendContainerStore(ContainerStore):
    """Containers as named immutable blobs on a :class:`StorageBackend`.

    Object names are ``<prefix>container-%08d.hdsc``; the blob layout is
    header, metadata entries (the container's hash table), then the
    payload region.  Metadata-only chunks (simulated streams) serialise
    with a zero payload flag so round-trips preserve ``data=None``.

    On backends that advertise ``prefers_ranged_reads``,
    :meth:`read_chunks` serves a restore plan's slots with ranged reads
    of just the entry table and the needed payload spans — the paper's
    whole-container read becomes a handful of parallel ranged GETs while
    the **billing stays whole-container** (reading any chunk still costs
    one logical container read in :class:`IOStats`), so simulation
    numbers are comparable across backends.

    Args:
        backend: where the blobs live.
        prefix: object-name prefix, e.g. ``"containers/"`` when the
            backend holds a whole repository.
        compress: zlib-compress container blobs (transparent on read;
            compressed and plain blobs can coexist in one store).
        metrics: registry for container I/O histograms/counters (defaults
            to the process registry).
    """

    def __init__(
        self,
        backend: StorageBackend,
        capacity: int = CONTAINER_SIZE,
        stats: Optional[IOStats] = None,
        compress: bool = False,
        metrics: Optional["MetricsRegistry"] = None,
        prefix: str = "",
    ) -> None:
        super().__init__(capacity, stats)
        self.backend = backend
        self.prefix = prefix
        self.compress = compress
        self.metrics = metrics if metrics is not None else get_registry()
        self.backend.sweep_tmp(prefix.rstrip("/"))
        existing = self.container_ids()
        if existing:
            self._next_id = max(existing) + 1

    def _name(self, container_id: int) -> str:
        return f"{self.prefix}container-{container_id:08d}.hdsc"

    def write(self, container: Container) -> None:
        name = self._name(container.container_id)
        if self.backend.exists(name):
            raise StorageError(f"container {container.container_id} already stored")
        container.seal()
        started = time.perf_counter()
        blob = pack_container(container)
        if self.compress:
            blob = _COMPRESSED_MAGIC + zlib.compress(blob, level=1)
        self.backend.put(name, blob)
        self.stats.note_container_write(container.used)
        self.metrics.observe("store.container_write_seconds", time.perf_counter() - started)
        self.metrics.inc("store.container_write_bytes", len(blob))

    def read(self, container_id: int) -> Container:
        started = time.perf_counter()
        container = self._load(container_id)
        self.stats.note_container_read(container.used)
        self.metrics.observe("store.container_read_seconds", time.perf_counter() - started)
        self.metrics.inc("store.container_read_bytes", container.used)
        return container

    def peek(self, container_id: int) -> Container:
        return self._load(container_id)

    def _load(self, container_id: int) -> Container:
        name = self._name(container_id)
        try:
            blob = self.backend.get(name)
        except ObjectMissingError:
            raise UnknownContainerError(f"no container {container_id}") from None
        try:
            container = decode_container(blob, container_id)
        except StorageError as exc:
            raise StorageError(f"corrupt container object {name}: {exc}") from exc
        container.seal()
        return container

    def delete(self, container_id: int) -> None:
        try:
            self.backend.delete(self._name(container_id))
        except ObjectMissingError:
            raise UnknownContainerError(f"no container {container_id}") from None

    def __contains__(self, container_id: int) -> bool:
        return self.backend.exists(self._name(container_id))

    def container_ids(self) -> List[int]:
        ids = []
        start = len(self.prefix)
        for name in self.backend.list(self.prefix):
            short = name[start:]
            if short.startswith("container-") and short.endswith(".hdsc"):
                stem = short[len("container-") : -len(".hdsc")]
                # Tolerate foreign names ("container-backup.hdsc", editor
                # copies): a store open must never crash on a stray name.
                if stem.isdigit():
                    ids.append(int(stem))
        return sorted(ids)

    # ------------------------------------------------------------------
    # Ranged partial reads (object store / SQLite restore path)
    # ------------------------------------------------------------------
    def read_chunks(self, container_id: int, fingerprints: List[bytes]) -> Optional[Dict[bytes, "object"]]:
        """Fetch just the named chunks via ranged reads, or ``None``.

        Returns a fingerprint → :class:`~repro.chunking.stream.Chunk`
        mapping when the backend prefers ranged reads and the blob is not
        compressed; ``None`` means "use :meth:`read`" (whole-blob path).
        Bills exactly one whole-container read either way, so
        :class:`IOStats` parity with the full-read path holds.
        """
        from ..chunking.stream import Chunk

        if not getattr(self.backend, "prefers_ranged_reads", False):
            return None
        name = self._name(container_id)
        started = time.perf_counter()
        try:
            header = self.backend.get_range(name, 0, _HEADER.size)
        except ObjectMissingError:
            raise UnknownContainerError(f"no container {container_id}") from None
        if len(header) < _HEADER.size or header[:4] == _COMPRESSED_MAGIC:
            return None  # compressed (or tiny/odd) blob: whole-read path
        magic, cid, count, _capacity = _HEADER.unpack(header)
        if magic != _MAGIC or cid != container_id:
            raise StorageError(f"corrupt container object {name}: bad header")
        table = self.backend.get_range(name, _HEADER.size, count * _ENTRY.size)
        if len(table) != count * _ENTRY.size:
            raise StorageError(f"corrupt container object {name}: short entry table")
        metas = [_ENTRY.unpack_from(table, i * _ENTRY.size) for i in range(count)]
        # Payload is packed in offset order over has_data entries only.
        payload_base = _HEADER.size + count * _ENTRY.size
        located: Dict[bytes, Optional[tuple]] = {}
        sizes: Dict[bytes, int] = {}
        total_logical = 0
        cursor = 0
        for fp, chunk_offset, size, has_data in sorted(metas, key=lambda m: m[1]):
            total_logical += size
            sizes[fp] = size
            if has_data:
                located[fp] = (payload_base + cursor, size)
                cursor += size
            else:
                located[fp] = None  # metadata-only chunk
        chunks: Dict[bytes, Chunk] = {}
        wanted = []
        for fp in fingerprints:
            if fp not in sizes:
                raise UnknownChunkError(
                    f"container {container_id} does not hold {fp.hex()[:8]}"
                )
            span = located[fp]
            if span is None:
                chunks[fp] = Chunk(fp, sizes[fp], None)
            else:
                wanted.append((span[0], span[1], fp))
        wanted.sort()
        spans: List[List[object]] = []  # [start, end, [(offset, size, fp), ...]]
        for offset, size, fp in wanted:
            if spans and offset <= spans[-1][1] + _COALESCE_GAP:
                spans[-1][1] = max(spans[-1][1], offset + size)
                spans[-1][2].append((offset, size, fp))
            else:
                spans.append([offset, offset + size, [(offset, size, fp)]])
        for start, end, members in spans:
            blob = self.backend.get_range(name, start, end - start)
            if len(blob) != end - start:
                raise StorageError(f"corrupt container object {name}: short ranged read")
            for offset, size, fp in members:
                chunks[fp] = Chunk(fp, size, bytes(blob[offset - start : offset - start + size]))
        # Whole-container billing regardless of how few bytes moved: the
        # paper's cost model charges per container touched, and parity
        # with the full-read path keeps backends comparable.
        self.stats.note_container_read(total_logical)
        self.metrics.observe("store.container_read_seconds", time.perf_counter() - started)
        self.metrics.inc("store.container_read_bytes", total_logical)
        return chunks


class FileContainerStore(BackendContainerStore):
    """One file per container under ``root`` (used by the CLI and examples).

    The historical store, now one :class:`BackendContainerStore` over a
    ``file://`` backend — same files, same names, same billing.  Local
    files do not benefit from ranged reads (one syscall either way), so
    restores always take the whole-container read path here.
    """

    def __init__(
        self,
        root: str,
        capacity: int = CONTAINER_SIZE,
        stats: Optional[IOStats] = None,
        compress: bool = False,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> None:
        self.root = root
        super().__init__(
            wrap_backend(FileBackend(root)),
            capacity=capacity,
            stats=stats,
            compress=compress,
            metrics=metrics,
        )
