"""The container store: where sealed containers live, with read accounting.

:class:`BackendContainerStore` serialises containers as named immutable
blobs on any :class:`~repro.storage.backend.StorageBackend`: a
repository's ``file://``, ``sqlite://`` or ``s3://`` backend, or the
:class:`~repro.storage.backend.MemoryBackend` an engine built without
stores keeps them in (simulations and benchmarks).  Every read and write
bills :class:`~repro.storage.io_model.IOStats`, the ledger the paper's
metrics are computed from and the service's ``store.*`` metrics mirror.  On backends that prefer ranged reads it can fetch only
the chunk ranges a restore plan needs
(:meth:`~BackendContainerStore.read_chunks`) instead of whole blobs.
:class:`FileContainerStore` is the same store over a bare directory.

Container IDs are allocated by the store, strictly increasing from 1.
ID ``0`` and negative IDs never name containers — HiDeStore's recipes use
them as "in active containers" / "see recipe R_n" markers.

A store also holds HiDeStore's **active** containers once a checkpoint has
written them (``write(container, active=True)``): the same object format
under the same name, so a container is written once whatever its fate.
Their IDs are :attr:`BackendContainerStore.active_ids` and are not
archival: listing, counting and :meth:`~BackendContainerStore.stored_bytes`
skip them.  An active container ends either *adopted* — demotion would
have copied exactly its chunks into one archival container, so it turns
archival where it is instead (:meth:`~BackendContainerStore.adopt`) — or
*released* — its chunks were copied or merged away, so its object goes
(:meth:`~BackendContainerStore.release`).
"""

from __future__ import annotations

import hashlib
import struct
import time
import zlib
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
from ..units import CONTAINER_SIZE, FINGERPRINT_SIZE
from .backend import FileBackend, StorageBackend, wrap_backend
from .container import Container
from .io_model import IOStats


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
    """Serialise a container (metadata + payload region) to bytes.

    Entries keep the container's offsets, holes included; the payload
    region is the live chunks' bytes back to back, in offset order."""
    payload = container.payload
    has_data = 0 if payload is None else 1
    parts = [
        _HEADER.pack(_MAGIC, container.container_id, container.chunk_count, container.capacity)
    ]
    parts.extend(
        _ENTRY.pack(fp, offset, size, has_data) for fp, (offset, size) in container.index.items()
    )
    if payload is not None:  # one slice per back-to-back span of live chunks
        start = end = 0
        for offset, size in container.index.values():
            if offset != end:
                parts.append(payload[start:end])
                start = offset
            end = offset + size
        parts.append(payload[start:end])
    return b"".join(parts)


def unpack_container(blob: bytes, expected_id: Optional[int] = None) -> Container:
    """Parse :func:`pack_container` output back into an (unsealed) container.

    The entry table is read in one pass into the container's
    :attr:`~Container.index`, in offset order; offsets are renumbered back
    to back, so holes left by removals are compacted away on load and the
    logical contents are identical.  The container's payload is a view of
    the blob's payload region: on ``file://`` of the mapped file, from
    ``bytes`` of that one object.
    """
    blob = memoryview(blob)
    magic, cid, count, capacity = _HEADER.unpack_from(blob, 0)
    if magic != _MAGIC or (expected_id is not None and cid != expected_id):
        raise StorageError("corrupt container blob")
    base = _HEADER.size + count * _ENTRY.size
    table = sorted(_ENTRY.iter_unpack(blob[_HEADER.size : base]), key=itemgetter(1))
    fps, _offsets, sizes, has_data = tuple(zip(*table)) or ((), (), (), ())
    offsets = list(accumulate(sizes, initial=0))
    written = offsets.pop()
    index = dict(zip(fps, zip(offsets, sizes)))
    if len(index) < len(fps):
        seen: Set[bytes] = set()
        fp = next(fp for fp in fps if fp in seen or seen.add(fp))
        raise StorageError(f"container {cid} already holds chunk {fp.hex()[:8]}")
    if len(set(has_data)) > 1:
        raise StorageError(f"container {cid}: chunks with and without data do not mix")
    end = base + written if any(has_data) else base
    if end > len(blob):  # a short entry table lands here too
        raise StorageError("corrupt container blob: cut short")
    payload = blob[base:end] if any(has_data) else None
    return Container.indexed(cid, capacity, index, payload, written)


_COMPRESSED_MAGIC = b"HDSZ"


def decode_container(blob: bytes, expected_id: int) -> Container:
    """Parse a stored container object, plain or zlib-wrapped.

    The container's payload is a view into the (decompressed) blob.  Every
    way a damaged blob can fail to parse — bad magic or ID, a short entry
    table, a payload region cut short, a broken zlib stream — raises
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


class BackendContainerStore:
    """Containers as named immutable blobs on a :class:`StorageBackend`.

    Object names are ``<prefix>container-%08d.hdsc``; the blob layout is
    header, metadata entries (the container's hash table), then the
    payload region.  Metadata-only chunks (simulated streams) serialise
    with a zero payload flag so round-trips preserve ``data=None``.

    :meth:`read` and :meth:`peek` decode the backend's :meth:`~repro.
    storage.backend.StorageBackend.view` of the blob, so on ``file://`` a
    plain container is a mapping of its file and its payload a view of
    it.  On backends that advertise ``prefers_ranged_reads``,
    :meth:`read_chunks` serves a restore plan's slots with ranged reads
    of just the entry table and the needed payload spans — the paper's
    whole-container read becomes a handful of parallel ranged GETs while
    the **billing stays whole-container** (reading any chunk still costs
    one logical container read in :class:`IOStats`), so simulation
    numbers are comparable across backends.

    **ID-allocation contract** (exercised by checkpoint reload and by
    ``tests/test_storage_backend.py``): :meth:`allocate` hands out strictly
    increasing IDs starting at 1; :attr:`next_id` always names the ID the
    next :meth:`allocate` returns; :meth:`reserve_ids(upto) <reserve_ids>`
    guarantees ``next_id == max(next_id, upto + 1)`` — it never moves IDs
    backwards, so replaying a stale checkpoint cannot re-issue an ID a
    stored container already uses; and a store opened over stored
    containers resumes allocation above the highest stored ID, even
    without a checkpoint.

    Args:
        backend: where the blobs live.
        capacity: container payload capacity.
        stats: the read/write ledger billed (a fresh one by default).
        compress: zlib-compress container blobs (transparent on read;
            compressed and plain blobs can coexist in one store).
        prefix: object-name prefix, e.g. ``"containers/"`` when the
            backend holds a whole repository.
    """

    def __init__(
        self,
        backend: StorageBackend,
        capacity: int = CONTAINER_SIZE,
        stats: Optional[IOStats] = None,
        compress: bool = False,
        prefix: str = "",
    ) -> None:
        self.capacity = capacity
        self.stats = stats if stats is not None else IOStats()
        #: IDs of the active pool's containers: not archival, whatever is
        #: stored under them.  An object under one that no head names (a
        #: save died before its head) is stale; the next write replaces it.
        self.active_ids: Set[int] = set()
        #: IDs a loaded head released, whose objects its writer may not
        #: have deleted yet: not archival either.
        self.released_ids: Set[int] = set()
        self.backend = backend
        self.prefix = prefix
        self.compress = compress
        self.backend.sweep_tmp(prefix.rstrip("/"))
        self._next_id = max(self.container_ids(), default=0) + 1

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

    def is_archival_id(self, container_id: int) -> bool:
        """Whether an object stored under ``container_id`` is archival."""
        return container_id not in self.active_ids and container_id not in self.released_ids

    # ------------------------------------------------------------------
    def _name(self, container_id: int) -> str:
        return f"{self.prefix}container-{container_id:08d}.hdsc"

    def write(self, container: Container, active: bool = False) -> Optional[Dict]:
        """Persist a container (bills one container write).

        Archival (the default): sealed first, then written once.  ``active``:
        a pool container a checkpoint persists; it stays open (demotion still
        shrinks its live set), its ID joins :attr:`active_ids` and the return
        is its head entry ``{cid, size, sha256}`` of the stored object.  One
        method for both, because every container write is one layer to the
        instrumentation that wraps it (``benchmarks/waterfall/wf_spans.py``).
        """
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
        self.stats.note_container_write(
            container.used, time.perf_counter() - started, len(blob)
        )
        if not active:
            self.active_ids.discard(cid)
            return None
        self.active_ids.add(cid)
        return object_ref(cid, blob)

    def adopt(self, container: Container) -> None:
        """Make an intact active container whose object a checkpoint wrote
        archival where it stands: the object holds exactly its chunks, so it
        is sealed and stops being active, and nothing is written."""
        container.seal()
        self.active_ids.discard(container.container_id)

    def release(self, container_id: int) -> None:
        """Delete the object of an active container no head names any more."""
        self.active_ids.discard(container_id)
        try:
            self.backend.delete(self._name(container_id))
        except ObjectMissingError:
            pass

    def read_object(self, container_id: int) -> bytes:
        """A container's stored object, as written (unbilled); raises
        :class:`~repro.errors.ObjectMissingError` when absent."""
        return self.backend.get(self._name(container_id))

    def read(self, container_id: int) -> Container:
        """Fetch a container by ID (bills one container read)."""
        started = time.perf_counter()
        container = self._load(container_id)
        self.stats.note_container_read(container.used, time.perf_counter() - started)
        return container

    def peek(self, container_id: int) -> Container:
        """Fetch a container *without* billing a read (metrics/test use only)."""
        return self._load(container_id)

    def iter_containers(self) -> Iterator[Container]:
        """Iterate containers without billing reads (metrics/test use only)."""
        for cid in self.container_ids():
            yield self.peek(cid)

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
        """Remove a container (expired-version reclamation)."""
        try:
            self.backend.delete(self._name(container_id))
        except ObjectMissingError:
            raise UnknownContainerError(f"no container {container_id}") from None

    def used_bytes(self, container_id: int) -> int:
        """Live payload bytes of one stored container (unbilled).

        Sums the entry table off one ranged read of header and table (a
        second for a table longer than :data:`_TABLE_GUESS` entries); a
        compressed (or odd) object takes the whole-blob path."""
        name = self._name(container_id)
        try:
            head = self.backend.get_range(name, 0, _HEADER.size + _TABLE_GUESS * _ENTRY.size)
        except ObjectMissingError:
            raise UnknownContainerError(f"no container {container_id}") from None
        if len(head) < _HEADER.size or head[:4] != _MAGIC:
            return self.peek(container_id).used
        _magic, cid, count, _capacity = _HEADER.unpack_from(head)
        table = head[_HEADER.size : _HEADER.size + count * _ENTRY.size]
        if len(table) < count * _ENTRY.size:
            rest = count * _ENTRY.size - len(table)
            table += self.backend.get_range(name, _HEADER.size + len(table), rest)
        if cid != container_id or len(table) != count * _ENTRY.size:
            raise StorageError(f"corrupt container object {name}: bad header or entry table")
        return sum(size for _fp, _offset, size, _has_data in _ENTRY.iter_unpack(table))

    def stored_bytes(self) -> int:
        """Total live payload bytes across all archival containers (unbilled)."""
        return sum(self.used_bytes(cid) for cid in self.container_ids())

    def __len__(self) -> int:
        return len(self.container_ids())

    def __contains__(self, container_id: int) -> bool:
        """Whether an archival container ``container_id`` is stored."""
        return self.is_archival_id(container_id) and self.backend.exists(self._name(container_id))

    def container_ids(self) -> List[int]:
        """IDs of the archival containers stored (active objects excluded)."""
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
            container_id, capacity, index, memoryview(b"".join(blobs)), base
        )
        container.seal()
        # Whole-container billing regardless of how few bytes moved: the
        # paper's cost model charges per container touched, and parity
        # with the full-read path keeps backends comparable.
        self.stats.note_container_read(total_logical, time.perf_counter() - started)
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
    ) -> None:
        self.root = root
        super().__init__(
            wrap_backend(FileBackend(root)), capacity=capacity, stats=stats, compress=compress
        )
