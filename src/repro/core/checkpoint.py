"""HiDeStore checkpointing: persist and reload the volatile state.

The sealed world — archival containers and recipes — already lives in the
(possibly file-backed) stores.  What would be lost on process exit is the
*volatile* state: the T1 fingerprint tables, the active containers and
their location map, the per-version demotion maps of the recipe chain,
the deletion tags and the version counter.  A
checkpoint captures exactly that, taken at a version boundary (between
backups), so a store can be closed and reopened **without** retiring —
unlike :meth:`HiDeStore.retire`, a checkpointed system resumes with its hot
set still active and its physical locality intact.

Layout (``hidestore-checkpoint-v5``): a small **head**, write-once binary
**parts**, and the active containers as **container objects**.

* The head (``checkpoint.json``, a few KB of JSON) carries the format tag,
  the counters, the container allocator mark, the §4.5 deletion tags, the
  cumulative report, the repository's chunker as
  ``{name, min_size, avg_size, max_size}``, a parts list of
  ``{name, size, sha256}``, the active containers as ``{cid, size,
  sha256}`` and the ``released`` CIDs.  Writing it is one atomic
  ``put_meta`` and it is *the* commit record: a part no head names is
  debris.
* Each active container is an object of the container store —
  ``containers/container-<cid>.hdsc``, the name and format every archival
  container has — written through the store's own write path
  (``BackendContainerStore.write(container, active=True)``), so the store keeps
  it out of its archival listing (``active_ids``).
* The fingerprint tables are one part — fixed-width
  ``fingerprint | size | cid`` rows (the ``storage/recipe.py`` idiom) under
  ``checkpoint-tables-<sha16>.bin``.
* Each retained version's demotion map (what §4.3 would have rewritten
  into its recipe) is one part of ``fingerprint | cid`` rows under
  ``checkpoint-demoted-<version>-<sha16>.bin``, named by the head's
  ``demoted``: written by the first save after its update, unnamed at
  the version's expiry.

Part names end in the first 16 hex digits of the part's SHA-256, so a name
never changes its content and "present with the right size" is the whole
identity — what lets replication skip a part the way it skips a sealed
container.  A container object is write-once too: its CID is never reused.

**Why a container is written once.**  An active container only grows
while it is the pool's open container, during the one backup (or
compaction) that allocated it: ``ActiveContainerPool.end_version`` drops
the open container and ``compact`` always allocates fresh targets.  A
checkpoint is taken between versions, so by the first checkpoint that
sees a container it has stopped growing; from then on demotion only
*shrinks its live set*.  The tables part records that live set (a chunk is
live in container ``c`` iff a table row points at ``c``), so a stored
container object stays a valid superset for the container's whole life
and loading drops the fingerprints no row names.  When demotion would copy
exactly the chunks of an intact container (one that never lost a chunk)
into one archival container, it *adopts* that container instead: the
object already holds exactly those chunks, so it becomes archival under
the same name and nothing is copied.  An active container that ends any
other way — drained by demotion, merged by compaction — is *released*:
the next head no longer names it and lists its CID under ``released``.
Either way no container is written twice.  A save therefore writes
only the containers allocated since the previous save, the tables when the
cache was mutated, and the head; ``delete_oldest`` mutates neither and
writes the head alone.

Save order: new parts and container objects → head → delete the parts it
no longer names and the released objects.  A crash before the head leaves
unnamed parts, container objects past the allocator (orphaned space like
any other) and, under the ID of a container the old head's pool holds,
an object no head names: a v4 pool's first save writes below the
allocator.  After it, stale parts and released objects remain.  Loading
counts neither kind of ID as archival — the store's ``active_ids`` and
``released_ids`` — and the next write of a pool container's ID replaces
what is there.  Unnamed parts and released objects are swept when the
repository is next opened *for writing* — a reader never judges debris,
because a replication sync lands a mirror's parts ahead of the head that
names them — and a released object only because a head names it
released.  Opening holds every active object to the head's size and
SHA-256, as it does every part, so ``verify`` need not re-hash them.

Older heads are still read, and the first save writes v5:
``hidestore-checkpoint-v4`` (each active container a
``checkpoint-active-<cid>-<sha16>.hdsc`` part; read once, then written as
objects and the parts unnamed), ``hidestore-checkpoint-v3`` (the same
layout without ``chunker``), ``hidestore-checkpoint-v2`` (no demotion
parts either; its repository's recipes were rewritten in place, so their
positive rows say where demoted chunks went) and
``hidestore-checkpoint-v1`` (one JSON document, base64 containers).
v3, v2 and v1 were written by releases that cut with paper-config
FastCDC, so they load with that chunker and the next save names
``fastcdc``: the repository goes on cutting as it always has.  A reader
older than v5 refuses a v5 head as "not a … document" rather than opening
a repository whose active containers it cannot find.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import struct
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

from ..chunking import FastCDCChunker, chunker_from_spec, chunker_spec
from ..errors import ObjectMissingError, ReproError
from ..storage.backend import StorageBackend, open_backend
from ..storage.container import Container
from ..storage.container_store import BackendContainerStore, decode_container, unpack_container
from ..storage.recipe import BackendRecipeStore
from ..units import FINGERPRINT_SIZE
from .double_cache import CacheEntry
from .hidestore import HiDeStore
from .verify import container_name

_FORMAT = "hidestore-checkpoint-v5"
_FORMAT_V4 = "hidestore-checkpoint-v4"  # active containers as checkpoint parts
_FORMAT_V3 = "hidestore-checkpoint-v3"  # no chunker: cut with paper-config FastCDC
_FORMAT_V2 = "hidestore-checkpoint-v2"  # no demotion parts: its recipes were rewritten
_FORMAT_V1 = "hidestore-checkpoint-v1"

_TABLES_HEADER = struct.Struct("<4sI")  # magic, table count
_TABLES_MAGIC = b"HDCT"
_TABLE_ROWS = struct.Struct("<I")  # rows in the table that follows
_ROW = struct.Struct(f"<{FINGERPRINT_SIZE}sII")  # fingerprint, size, cid
_ROW_TAIL = struct.Struct("<II")
_DEMOTED_MAGIC = b"HDCM"
_DEMOTED_ROW = struct.Struct(f"<{FINGERPRINT_SIZE}sI")  # fingerprint, cid
_CID = struct.Struct("<I")


def pack_tables(tables: List[Dict[bytes, CacheEntry]]) -> bytes:
    """Serialise the fingerprint tables (oldest first) to fixed-width rows."""
    pieces = [_TABLES_HEADER.pack(_TABLES_MAGIC, len(tables))]
    expected = _TABLES_HEADER.size
    tail = _ROW_TAIL.pack
    for table in tables:
        pieces.append(_TABLE_ROWS.pack(len(table)))
        pieces.extend(fp + tail(entry.size, entry.cid) for fp, entry in table.items())
        expected += _TABLE_ROWS.size + len(table) * _ROW.size
    blob = b"".join(pieces)
    if len(blob) != expected:  # rows are fp + tail: a foreign width shows here
        raise ReproError(f"fingerprints must be {FINGERPRINT_SIZE} bytes to checkpoint")
    return blob


def unpack_tables(blob: bytes) -> List[Dict[bytes, CacheEntry]]:
    """Parse :func:`pack_tables` output."""
    try:
        magic, count = _TABLES_HEADER.unpack_from(blob, 0)
        if magic != _TABLES_MAGIC:
            raise ReproError("not a checkpoint tables part")
        offset = _TABLES_HEADER.size
        tables = []
        for _ in range(count):
            (rows,) = _TABLE_ROWS.unpack_from(blob, offset)
            offset += _TABLE_ROWS.size
            end = offset + rows * _ROW.size
            if end > len(blob):
                raise ReproError("checkpoint tables part is cut short")
            tables.append(
                {
                    fp: CacheEntry(size, cid)
                    for fp, size, cid in _ROW.iter_unpack(blob[offset:end])
                }
            )
            offset = end
        return tables
    except struct.error as exc:
        raise ReproError(f"corrupt checkpoint tables part: {exc}") from exc


def pack_demoted(moved: Dict[bytes, int]) -> bytes:
    """Serialise one version's demotion map to fixed-width rows."""
    rows = b"".join(fp + _CID.pack(cid) for fp, cid in moved.items())
    if len(rows) != len(moved) * _DEMOTED_ROW.size:
        raise ReproError(f"fingerprints must be {FINGERPRINT_SIZE} bytes to checkpoint")
    return _TABLES_HEADER.pack(_DEMOTED_MAGIC, len(moved)) + rows


def unpack_demoted(blob: bytes) -> Dict[bytes, int]:
    """Parse :func:`pack_demoted` output (a part the head's SHA-256 vouched for)."""
    magic, count = _TABLES_HEADER.unpack_from(blob, 0)
    if magic != _DEMOTED_MAGIC or len(blob) != _TABLES_HEADER.size + count * _DEMOTED_ROW.size:
        raise ReproError("not a checkpoint demotion part")
    return dict(_DEMOTED_ROW.iter_unpack(memoryview(blob)[_TABLES_HEADER.size :]))


def _part_ref(stem: str, suffix: str, blob: bytes) -> Dict:
    """The head's entry for one part; the name carries the content hash."""
    sha = hashlib.sha256(blob).hexdigest()
    return {"name": f"{stem}-{sha[:16]}{suffix}", "size": len(blob), "sha256": sha}


class CheckpointDocument:
    """One save: the head, plus the parts and objects it names that are not
    stored yet.

    Attributes:
        head: the JSON-serialisable head; :meth:`write` adds its ``active``
            entries once it has stored the new containers.
        new_parts: name -> blob of every named part no earlier save wrote.
        stale_parts: parts the previous head named and this one does not.
        new_containers: active containers no earlier save wrote.
        released: CIDs of active objects no pool container needs any more.
    """

    def __init__(
        self,
        head: Dict,
        new_parts: Dict[str, bytes],
        stale_parts: List[str],
        on_commit: Callable[[List[Dict]], None],
        containers: BackendContainerStore,
        active: List[Tuple[Container, Optional[Dict]]],
    ) -> None:
        self.head = head
        self.new_parts = new_parts
        self.stale_parts = stale_parts
        self._on_commit = on_commit
        self._containers = containers
        self._active = active
        self.new_containers = [c for c, ref in active if ref is None]
        self.released: List[int] = head["released"]

    def write(self, backend: StorageBackend, head_name: str) -> int:
        """Parts and container objects, then the head (the commit), then
        drop what it unnamed; returns the head's size in bytes."""
        for name, blob in self.new_parts.items():
            backend.put_meta(name, blob)
        active = [
            ref if ref is not None else self._containers.write(container, active=True)
            for container, ref in self._active
        ]
        self.head["active"] = active
        blob = json.dumps(self.head).encode("utf-8")
        backend.put_meta(head_name, blob)
        self._on_commit(active)
        try:
            for cid in self.released:
                self._containers.release(cid)
            for name in self.stale_parts:
                try:
                    backend.delete(name)
                except ObjectMissingError:
                    pass
        except Exception:
            # Committed already: what is left behind is debris the next
            # writer sweeps, never a reason to fail (and roll back) the save.
            pass
        return len(blob)


def checkpoint_document(system: HiDeStore) -> CheckpointDocument:
    """The volatile state of ``system`` as a head plus what it has not stored.

    Must be taken between backups (never mid-version).  The archival
    container store and recipe store are *not* captured — persist those
    with durable stores.  Packs only what no earlier save stored: demotion
    maps recorded since, and the tables if the cache was mutated; active
    containers allocated since are written to the container store by
    :meth:`CheckpointDocument.write`, which is also when the system is told
    what is stored — a document that is built and dropped costs nothing
    but its packing.
    """
    system.run_maintenance()  # queued filter work is not serialised
    cache, pool, chain = system.cache, system.pool, system.chain
    stored = {ref["name"] for ref in chain.persisted.values()}
    stored.update(pool.legacy_parts)
    if cache.persisted is not None:
        stored.add(cache.persisted["name"])
    new_parts: Dict[str, bytes] = {}

    if cache.dirty or cache.persisted is None or cache.current_size:
        tables = cache.export_tables()  # raises if mid-version (T2 not empty)
        _check_live_sets(system, tables)
        blob = pack_tables(tables)
        tables_ref = _part_ref("checkpoint-tables", ".bin", blob)
        if tables_ref["name"] not in stored:
            new_parts[tables_ref["name"]] = blob
    else:
        tables_ref = cache.persisted

    active = [
        (container, pool.persisted.get(container.container_id))
        for container in pool.iter_containers()
    ]
    released = sorted(cid for cid in system.containers.active_ids if cid not in pool)

    demoted_refs: Dict[int, Dict] = {}
    for version, moved in sorted(chain.demoted.items()):
        ref = chain.persisted.get(version)
        if ref is None:
            blob = pack_demoted(moved)
            ref = _part_ref(f"checkpoint-demoted-{version:08d}", ".bin", blob)
            new_parts[ref["name"]] = blob
        demoted_refs[version] = ref

    parts = [tables_ref, *demoted_refs.values()]
    named = {ref["name"] for ref in parts}

    def on_commit(active_refs: List[Dict]) -> None:
        cache.persisted, cache.dirty = tables_ref, False
        pool.persisted = {ref["cid"]: ref for ref in active_refs}
        pool.legacy_parts = []
        chain.persisted = demoted_refs

    head = {
        "format": _FORMAT,
        "next_version": system._next_version,
        "history_depth": system.history_depth,
        "compaction_threshold": pool.compaction_threshold,
        "container_size": system.container_size,
        "lookup_unit_bytes": system.lookup_unit_bytes,
        "deferred_maintenance": system.deferred_maintenance,
        "retired": system._retired,
        "next_container_id": system.containers.next_id,
        "deletion_tags": {
            str(version): system.deletion.containers_for(version)
            for version in system.deletion.tagged_versions()
        },
        "report": {
            "versions": system.report.versions,
            "logical_bytes": system.report.logical_bytes,
            "stored_bytes": system.report.stored_bytes,
            "disk_index_lookups": system.report.disk_index_lookups,
        },
        "chunker": chunker_spec(system.chunker),
        "tables": tables_ref["name"],
        "demoted": {str(version): ref["name"] for version, ref in demoted_refs.items()},
        "parts": parts,
        "released": released,
    }
    return CheckpointDocument(
        head, new_parts, sorted(stored - named), on_commit, system.containers, active
    )


def _check_live_sets(system: HiDeStore, tables: List[Dict[bytes, CacheEntry]]) -> None:
    """Refuse to save a state whose reload would lose a chunk.

    A stored container object is filtered on load to the fingerprints the
    tables point at it, so every chunk an active container holds must have
    its row (the invariant the write-once argument rests on).
    """
    rows = Counter(entry.cid for table in tables for entry in table.values())
    for container in system.pool.iter_containers():
        if rows[container.container_id] != container.chunk_count:
            raise ReproError(
                f"active container {container.container_id} holds "
                f"{container.chunk_count} chunks but the fingerprint cache "
                f"names {rows[container.container_id]} of them; refusing to checkpoint"
            )


def save_checkpoint(system: HiDeStore, path: str) -> None:
    """Write the volatile state of ``system``: the head at ``path``, the
    parts beside it (see :func:`checkpoint_document`)."""
    backend = open_backend(os.path.dirname(path) or ".")
    checkpoint_document(system).write(backend, os.path.basename(path))


def _fetched(read: Callable[[], bytes], ref: Dict, what: str) -> bytes:
    """Fetch one part or object the head names and hold it to the head's
    size and SHA-256; ``what`` names it in the error."""
    try:
        blob = read()
    except ObjectMissingError:
        raise ReproError(f"{what} is missing") from None
    if len(blob) != ref["size"]:
        raise ReproError(f"{what} is {len(blob)} bytes, the head says {ref['size']}")
    if hashlib.sha256(blob).hexdigest() != ref["sha256"]:
        raise ReproError(f"{what} does not match the head's sha256")
    return blob


def _checked_part(ref: Dict, read_part: Callable[[str], bytes]) -> bytes:
    name = ref["name"]
    return _fetched(lambda: read_part(name), ref, f"checkpoint part {name!r}")


def system_from_document(
    document: Dict,
    container_store: Optional[BackendContainerStore] = None,
    recipe_store: Optional[BackendRecipeStore] = None,
    read_part: Optional[Callable[[str], bytes]] = None,
) -> HiDeStore:
    """Rebuild a :class:`HiDeStore` from a checkpoint head + its stores.

    Args:
        document: a v5, v4, v3 or v2 head (:attr:`CheckpointDocument.head`)
            or a whole v1 document.
        container_store: the store the system was using (archival and
            active containers); defaults to one over a fresh
            :class:`~repro.storage.backend.MemoryBackend`, which holds no
            active container a head can name.
        recipe_store: likewise for recipes.
        read_part: ``name -> bytes`` for the parts a head names.

    Keys this version no longer knows (the periodic-flatten period that
    heads and v1 documents carried until PR 23) are ignored.
    """
    fmt = document.get("format")
    if fmt not in (_FORMAT, _FORMAT_V4, _FORMAT_V3, _FORMAT_V2, _FORMAT_V1):
        raise ReproError(f"not a {_FORMAT} document")
    if fmt in (_FORMAT, _FORMAT_V4):
        try:
            chunker = chunker_from_spec(document["chunker"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ReproError(f"checkpoint head names no usable chunker: {exc}") from None
    else:
        chunker = FastCDCChunker()

    system = HiDeStore(
        container_store=container_store,
        recipe_store=recipe_store,
        history_depth=document["history_depth"],
        compaction_threshold=document["compaction_threshold"],
        container_size=document["container_size"],
        lookup_unit_bytes=document["lookup_unit_bytes"],
        deferred_maintenance=document.get("deferred_maintenance", False),
        chunker=chunker,
    )
    system._next_version = document["next_version"]
    system._retired = document["retired"]
    system.containers.reserve_ids(document["next_container_id"] - 1)

    if fmt == _FORMAT_V1:
        _load_v1_state(system, document)
    else:
        if read_part is None:
            raise ReproError(f"a {_FORMAT} head needs its parts to load")
        _load_parts(system, document, read_part)

    # Whatever is stored under these IDs is not archival: the pool's
    # containers (a save that died before its head may have left an object
    # for one) and those the head released (deleted after it, or swept).
    system.containers.active_ids.update(system.pool._active)
    system.containers.released_ids.update(document.get("released", ()))

    # Deletion tags.
    for version, cids in document["deletion_tags"].items():
        system.deletion.tag_containers(int(version), list(cids))

    # Cumulative report (per-version history is not checkpointed).
    report = document["report"]
    system.report.versions = report["versions"]
    system.report.logical_bytes = report["logical_bytes"]
    system.report.stored_bytes = report["stored_bytes"]
    system.report.disk_index_lookups = report["disk_index_lookups"]
    return system


def _load_parts(system: HiDeStore, head: Dict, read_part: Callable[[str], bytes]) -> None:
    """Cache tables, demotion maps and active containers (v5: container
    objects; before: parts) of a head, each checked against it."""
    cache, pool, chain, store = system.cache, system.pool, system.chain, system.containers
    refs = {ref["name"]: ref for ref in head["parts"]}
    tables_ref = refs.pop(head["tables"], None)
    if tables_ref is None:
        raise ReproError(f"checkpoint head does not list its tables part {head['tables']!r}")
    for version, name in head.get("demoted", {}).items():
        ref = refs.pop(name, None)
        if ref is None:
            raise ReproError(f"checkpoint head does not list its demotion part {name!r}")
        chain.demoted[int(version)] = unpack_demoted(_checked_part(ref, read_part))
        chain.persisted[int(version)] = ref
    tables = unpack_tables(_checked_part(tables_ref, read_part))
    cache.restore_tables(tables)
    cache.persisted, cache.dirty = tables_ref, False

    loaded: List[Tuple[str, Container, Optional[Dict]]] = []
    for ref in head.get("active", ()):
        cid = ref["cid"]
        name = container_name(cid)
        blob = _fetched(lambda: store.read_object(cid), ref, f"active container object {name!r}")
        try:
            loaded.append((name, decode_container(blob, cid), ref))
        except ReproError as exc:
            raise ReproError(f"active container object {name!r} does not decode: {exc}") from exc
    for name, ref in refs.items():  # pre-v5 heads: the rest are active parts
        try:
            loaded.append((name, unpack_container(_checked_part(ref, read_part)), None))
        except struct.error as exc:
            raise ReproError(f"checkpoint part {name!r} does not unpack: {exc}") from exc
        pool.legacy_parts.append(name)

    #: cid -> fingerprints some table row places there: the live sets.
    live: Dict[int, set] = {}
    for table in tables:
        for fp, entry in table.items():
            live.setdefault(entry.cid, set()).add(fp)
    for name, container, ref in loaded:
        cid = container.container_id
        keep = live.get(cid, ())
        for fp in container.fingerprints():
            if fp not in keep:
                container.remove(fp)  # demoted after the object was written
        if container.chunk_count != len(keep):
            raise ReproError(f"{name!r} lacks chunks the checkpoint tables place in it")
        pool._active[cid] = container
        for fp in container.fingerprints():
            pool.location[fp] = cid
        if ref is not None:
            pool.persisted[cid] = ref


def _load_v1_state(system: HiDeStore, document: Dict) -> None:
    """The same state out of a v1 document (hex-keyed tables, base64 blobs).

    Nothing is marked persisted, so the next save writes every part."""
    system.cache.restore_tables(
        [
            {
                bytes.fromhex(fp_hex): CacheEntry(size=entry[0], cid=entry[1])
                for fp_hex, entry in table.items()
            }
            for table in document["cache_tables"]
        ]
    )
    for blob_b64 in document["active_containers"]:
        container = unpack_container(base64.b64decode(blob_b64))
        system.pool._active[container.container_id] = container
        for fp in container.fingerprints():
            system.pool.location[fp] = container.container_id


def load_checkpoint(
    path: str,
    container_store: Optional[BackendContainerStore] = None,
    recipe_store: Optional[BackendRecipeStore] = None,
) -> HiDeStore:
    """Rebuild a :class:`HiDeStore` from a checkpoint head file (its parts
    sit beside it) + its stores."""
    if not os.path.exists(path):
        raise ReproError(f"no checkpoint at {path}")
    backend = open_backend(os.path.dirname(path) or ".")
    document = json.loads(backend.get(os.path.basename(path)))
    try:
        return system_from_document(document, container_store, recipe_store, backend.get)
    except ReproError as exc:
        raise ReproError(f"{path}: {exc}") from exc
