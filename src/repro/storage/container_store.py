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
* :class:`FileContainerStore` — one file per container under a bare
  directory: :class:`BackendContainerStore` over a ``file://`` backend
  rooted there.  A repository does not use it: its containers are a
  :class:`BackendContainerStore` with prefix ``containers/`` on whichever
  backend holds them, a directory's included.

Container IDs are allocated by the store, strictly increasing from 1.
ID ``0`` and negative IDs never name containers — HiDeStore's recipes use
them as "in active containers" / "see recipe R_n" markers.

A store also holds HiDeStore's **active** containers once a checkpoint has
written them (``write(container, active=True)``): the same object format
under the same name, so a container is written once whatever its fate.
Their IDs are :attr:`ContainerStore.active_ids` and are not archival:
listing, counting and :meth:`~ContainerStore.stored_bytes` skip them.  An
active container ends either *adopted* — demotion would have copied
exactly its chunks into one archival container, so it turns archival where
it is instead (:meth:`~ContainerStore.adopt`) — or *released* — its chunks
were copied or merged away, so its object goes
(:meth:`~ContainerStore.release`).
"""

from __future__ import annotations

import hashlib
import struct
import time
import zlib
from abc import ABC, abstractmethod
from itertools import accumulate
from operator import itemgetter
from typing import Dict, Iterator, List, Optional, Set, Tuple

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
        #: IDs of the active pool's containers: not archival, whatever is
        #: stored under them.  An object under one that no head names (a
        #: save died before its head) is stale; the next write replaces it.
        self.active_ids: Set[int] = set()
        #: IDs a loaded head released, whose objects its writer may not
        #: have deleted yet: not archival either.
        self.released_ids: Set[int] = set()

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
    def write(self, container: Container, active: bool = False) -> Optional[Dict]:
        """Persist a container (bills one container write).

        Archival (the default): sealed first, then written once.  ``active``:
        a pool container a checkpoint persists; it stays open (demotion still
        shrinks its live set), its ID joins :attr:`active_ids` and the return
        is its head entry ``{cid, size, sha256}`` of the stored object.  One
        method for both, because every container write is one layer to the
        instrumentation that wraps it (``benchmarks/waterfall/wf_spans.py``).
        """

    @abstractmethod
    def read(self, container_id: int) -> Container:
        """Fetch a container by ID (bills one container read)."""

    @abstractmethod
    def delete(self, container_id: int) -> None:
        """Remove a container (expired-version reclamation)."""

    @abstractmethod
    def __contains__(self, container_id: int) -> bool:
        """Whether an archival container ``container_id`` is stored."""

    @abstractmethod
    def container_ids(self) -> List[int]:
        """IDs of the archival containers stored (active objects excluded)."""

    @abstractmethod
    def read_object(self, container_id: int) -> bytes:
        """An active container's stored object, as written (unbilled);
        raises :class:`~repro.errors.ObjectMissingError` when absent."""

    def adopt(self, container: Container) -> None:
        """Make an intact active container whose object a checkpoint wrote
        archival where it stands: the object holds exactly its chunks, so it
        is sealed and stops being active, and nothing is written."""
        container.seal()
        self.active_ids.discard(container.container_id)

    def release(self, container_id: int) -> None:
        """Delete the object of an active container no head names any more."""
        self.active_ids.discard(container_id)

    def is_archival_id(self, container_id: int) -> bool:
        """Whether an object stored under ``container_id`` is archival."""
        return container_id not in self.active_ids and container_id not in self.released_ids

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.container_ids())

    def used_bytes(self, container_id: int) -> int:
        """Live payload bytes of one stored container (unbilled)."""
        return self.peek(container_id).used

    def stored_bytes(self) -> int:
        """Total live payload bytes across all archival containers (unbilled)."""
        return sum(self.used_bytes(cid) for cid in self.container_ids())

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
        #: Active objects as written: the pool's container keeps shrinking.
        self._active_blobs: Dict[int, bytes] = {}

    def write(self, container: Container, active: bool = False) -> Optional[Dict]:
        cid = container.container_id
        if cid in self._containers:
            raise StorageError(f"container {cid} already stored")
        self.stats.note_container_write(container.used)
        if active:
            blob = self._active_blobs[cid] = pack_container(container)
            self.active_ids.add(cid)
            return object_ref(cid, blob)
        container.seal()
        self._containers[cid] = container
        self._active_blobs.pop(cid, None)
        self.active_ids.discard(cid)
        return None

    def adopt(self, container: Container) -> None:
        self._containers[container.container_id] = container
        del self._active_blobs[container.container_id]
        super().adopt(container)

    def release(self, container_id: int) -> None:
        self._active_blobs.pop(container_id, None)
        super().release(container_id)

    def read_object(self, container_id: int) -> bytes:
        try:
            return self._active_blobs[container_id]
        except KeyError:  # an archival one is an object, not a blob, here
            raise ObjectMissingError(f"no active container object {container_id}") from None

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
#: Entries the first ranged read of ``used_bytes`` covers: twice those of a
#: full container of average (8 KiB) chunks.
_TABLE_GUESS = 1024


def object_ref(container_id: int, blob: bytes) -> Dict:
    """A checkpoint head's entry for one active container object."""
    return {"cid": container_id, "size": len(blob), "sha256": hashlib.sha256(blob).hexdigest()}


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
    compacted away on load; the logical contents are identical.  The entry
    table is read in one pass.  From a ``memoryview`` whose chunks all
    carry data, it becomes the container's :attr:`~Container.index` over
    the payload region, kept whole as :attr:`Container.payload`, and no
    slot is built until one is read.  From ``bytes``, slot data are copies
    (a long-lived container pins no blob).
    """
    magic, cid, count, capacity = _HEADER.unpack_from(blob, 0)
    if magic != _MAGIC or (expected_id is not None and cid != expected_id):
        raise StorageError("corrupt container blob")
    base = _HEADER.size + count * _ENTRY.size
    table = sorted(_ENTRY.iter_unpack(blob[_HEADER.size : base]), key=itemgetter(1))
    fps, _offsets, sizes, has_data = tuple(zip(*table)) or ((), (), (), ())
    if isinstance(blob, memoryview) and all(has_data):
        offsets = list(accumulate(sizes, initial=0))
        end = base + offsets.pop()
        index = dict(zip(fps, zip(offsets, sizes)))
        if len(index) < len(fps):
            seen: Set[bytes] = set()
            fp = next(fp for fp in fps if fp in seen or seen.add(fp))
            raise StorageError(f"container {cid} already holds chunk {fp.hex()[:8]}")
        if end > len(blob):  # a short entry table lands here too
            raise StorageError("corrupt container blob: cut short")
        return Container.indexed(cid, capacity, index, blob[base:end])
    container = Container(cid, capacity)
    cursor = 0
    for fp, _offset, size, has_data in table:
        data = None
        if has_data:
            data = blob[base + cursor : base + cursor + size]
            cursor += size
        container.put(fp, size, data)
    if base + cursor > len(blob):  # a short entry table lands here too
        raise StorageError("corrupt container blob: cut short")
    return container


_COMPRESSED_MAGIC = b"HDSZ"


def decode_container(blob: bytes, expected_id: int, own: bool = False) -> Container:
    """Parse a stored container object, plain or zlib-wrapped.

    Slot data are views into the blob, unless ``own``: then each is a copy,
    so a long-lived (active) container pins no blob.  Every way a damaged
    blob can fail to parse — bad magic or ID, a short entry table, a
    payload region cut short, a broken zlib stream — raises
    :class:`StorageError`.
    """
    try:
        if blob[:4] == _COMPRESSED_MAGIC:
            blob = zlib.decompress(blob[4:])
        return unpack_container(bytes(blob) if own else memoryview(blob), expected_id=expected_id)
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

    :meth:`read` and :meth:`peek` decode the backend's :meth:`~repro.
    storage.backend.StorageBackend.view` of the blob, so on ``file://`` a
    plain container is a mapping of its file and slot data are views of
    it.  On backends that advertise ``prefers_ranged_reads``,
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

    def write(self, container: Container, active: bool = False) -> Optional[Dict]:
        cid = container.container_id
        name = self._name(cid)
        if self.backend.exists(name):
            if cid not in self.active_ids:
                raise StorageError(f"container {cid} already stored")
            self.backend.delete(name)  # stale: no head names it
        if not active:
            container.seal()
        started = time.perf_counter()
        blob = pack_container(container)
        if self.compress:
            blob = _COMPRESSED_MAGIC + zlib.compress(blob, level=1)
        self.backend.put(name, blob)
        self.stats.note_container_write(container.used)
        self.metrics.observe("store.container_write_seconds", time.perf_counter() - started)
        self.metrics.inc("store.container_write_bytes", len(blob))
        if not active:
            self.active_ids.discard(cid)
            return None
        self.active_ids.add(cid)
        return object_ref(cid, blob)

    def release(self, container_id: int) -> None:
        super().release(container_id)
        try:
            self.backend.delete(self._name(container_id))
        except ObjectMissingError:
            pass

    def read_object(self, container_id: int) -> bytes:
        return self.backend.get(self._name(container_id))

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
            blob = self.backend.view(name)
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

    def used_bytes(self, container_id: int) -> int:
        """Sums the entry table off one ranged read of header and table (a
        second for a table longer than :data:`_TABLE_GUESS` entries); a
        compressed (or odd) object takes the whole-blob path."""
        name = self._name(container_id)
        try:
            head = self.backend.get_range(name, 0, _HEADER.size + _TABLE_GUESS * _ENTRY.size)
        except ObjectMissingError:
            raise UnknownContainerError(f"no container {container_id}") from None
        if len(head) < _HEADER.size or head[:4] != _MAGIC:
            return super().used_bytes(container_id)
        _magic, cid, count, _capacity = _HEADER.unpack_from(head)
        table = head[_HEADER.size : _HEADER.size + count * _ENTRY.size]
        if len(table) < count * _ENTRY.size:
            rest = count * _ENTRY.size - len(table)
            table += self.backend.get_range(name, _HEADER.size + len(table), rest)
        if cid != container_id or len(table) != count * _ENTRY.size:
            raise StorageError(f"corrupt container object {name}: bad header or entry table")
        return sum(size for _fp, _offset, size, _has_data in _ENTRY.iter_unpack(table))

    def __contains__(self, container_id: int) -> bool:
        return self.is_archival_id(container_id) and self.backend.exists(self._name(container_id))

    def container_ids(self) -> List[int]:
        ids = []
        start = len(self.prefix)
        for name in self.backend.list(self.prefix):
            short = name[start:]
            if short.startswith("container-") and short.endswith(".hdsc"):
                stem = short[len("container-") : -len(".hdsc")]
                # Tolerate foreign names ("container-backup.hdsc", editor
                # copies): a store open must never crash on a stray name.
                if stem.isdigit() and self.is_archival_id(int(stem)):
                    ids.append(int(stem))
        return sorted(ids)

    # ------------------------------------------------------------------
    # Ranged partial reads (object store / SQLite restore path)
    # ------------------------------------------------------------------
    def read_chunks(self, container_id: int, fingerprints: List[bytes]) -> Optional[Container]:
        """Fetch just the named chunks via ranged reads, or ``None``.

        Returns a sealed container indexed over the coalesced payload spans
        the named chunks lie in, joined into one buffer (its
        :attr:`~repro.storage.container.Container.index` holds each named
        chunk's offset in that buffer), when the backend prefers ranged
        reads and the blob is plain.  ``None`` means "use :meth:`read`"
        (the whole-blob path): a compressed blob, or a named chunk with no
        stored payload.  Bills exactly one whole-container read, so
        :class:`IOStats` parity with the full-read path holds.
        """
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
        magic, cid, count, capacity = _HEADER.unpack(header)
        if magic != _MAGIC or cid != container_id:
            raise StorageError(f"corrupt container object {name}: bad header")
        table = self.backend.get_range(name, _HEADER.size, count * _ENTRY.size)
        if len(table) != count * _ENTRY.size:
            raise StorageError(f"corrupt container object {name}: short entry table")
        # Payload is packed in offset order over has_data entries only.
        located: Dict[bytes, Optional[Tuple[int, int]]] = {}
        total_logical = 0
        cursor = _HEADER.size + count * _ENTRY.size
        for fp, _offset, size, has_data in sorted(_ENTRY.iter_unpack(table), key=itemgetter(1)):
            total_logical += size
            located[fp] = (cursor, size) if has_data else None
            cursor += size if has_data else 0
        wanted = set()
        for fp in fingerprints:
            try:
                span = located[fp]
            except KeyError:
                raise UnknownChunkError(
                    f"container {container_id} does not hold {fp.hex()[:8]}"
                ) from None
            if span is None:
                return None  # a metadata-only chunk: the whole read says so
            wanted.add(span + (fp,))
        spans: List[List] = []  # [start, end, [(offset, size, fp), ...]]
        for offset, size, fp in sorted(wanted):
            if spans and offset <= spans[-1][1] + _COALESCE_GAP:
                spans[-1][1] = max(spans[-1][1], offset + size)
                spans[-1][2].append((offset, size, fp))
            else:
                spans.append([offset, offset + size, [(offset, size, fp)]])
        blobs: List[bytes] = []
        index: Dict[bytes, Tuple[int, int]] = {}
        base = 0
        for start, end, members in spans:
            blob = self.backend.get_range(name, start, end - start)
            if len(blob) != end - start:
                raise StorageError(f"corrupt container object {name}: short ranged read")
            blobs.append(blob)
            for offset, size, fp in members:
                index[fp] = (base + offset - start, size)
            base += end - start
        container = Container.indexed(
            container_id, capacity, index, memoryview(b"".join(blobs))
        )
        container.seal()
        # Whole-container billing regardless of how few bytes moved: the
        # paper's cost model charges per container touched, and parity
        # with the full-read path keeps backends comparable.
        self.stats.note_container_read(total_logical)
        self.metrics.observe("store.container_read_seconds", time.perf_counter() - started)
        self.metrics.inc("store.container_read_bytes", total_logical)
        return container


class FileContainerStore(BackendContainerStore):
    """One file per container under ``root``: a :class:`BackendContainerStore`
    over a ``file://`` backend rooted there (engine-level tests and
    examples; a repository's own store carries the ``containers/`` prefix).

    Restores take the whole-container read path here, but a read maps the
    file rather than copying it (:meth:`~repro.storage.backend.FileBackend.view`):
    decoding touches the header and entry table, and only the pages of the
    chunks a restore serves are ever read.
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
