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

Layout (``hidestore-checkpoint-v4``): a small **head** plus write-once
binary **parts**.

* The head (``checkpoint.json``, a few KB of JSON) carries the format tag,
  the counters, the container allocator mark, the §4.5 deletion tags, the
  cumulative report, the repository's chunker as
  ``{name, min_size, avg_size, max_size}`` and a parts list of
  ``{name, size, sha256}``.  Writing
  it is one atomic ``put_meta`` and it is *the* commit record: a part no
  head names is debris.
* Each active container is one part — the ``pack_container`` blob the
  container stores write, under ``checkpoint-active-<cid>-<sha16>.hdsc``.
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
container.

**Why an active container is written once.**  An active container only
grows while it is the pool's open container, during the one backup (or
compaction) that allocated it: ``ActiveContainerPool.end_version`` drops
the open container and ``compact`` always allocates fresh targets.  A
checkpoint is taken between versions, so by the first checkpoint that
sees a container it has stopped growing; from then on demotion only
*shrinks its live set*.  The tables part records that live set (a chunk is
live in container ``c`` iff a table row points at ``c``), so a stored
container part stays a valid superset for the container's whole life and
loading drops the fingerprints no row names.  A save therefore writes only
the containers allocated since the previous save, the tables when the
cache was mutated, and the head; ``delete_oldest`` mutates neither and
writes the head alone.

Save order: new parts → head → delete the parts the new head no longer
names.  A crash before the head leaves unnamed parts, after it stale ones;
both are swept when the repository is next opened *for writing* — a reader
never judges a part debris, because a replication sync lands a mirror's
parts ahead of the head that names them.

Older heads are still read, and the first save writes v4:
``hidestore-checkpoint-v3`` (the same layout without ``chunker``),
``hidestore-checkpoint-v2`` (no demotion parts either; its repository's
recipes were rewritten in place, so their positive rows say where demoted
chunks went) and ``hidestore-checkpoint-v1`` (one JSON document, base64
containers).  Every one of them was written by a release that cut with
paper-config FastCDC, so it loads with that chunker and its next save
names ``fastcdc``: the repository goes on cutting as it always has.  A
reader older than v4 refuses a v4 head as "not a … document" rather than
cutting with a chunker the repository was not cut with.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import struct
from collections import Counter
from typing import Callable, Dict, List, Optional

from ..chunking import FastCDCChunker, chunker_from_spec, chunker_spec
from ..errors import ObjectMissingError, ReproError
from ..storage.backend import FileBackend, StorageBackend
from ..storage.container_store import ContainerStore, pack_container, unpack_container
from ..storage.recipe import RecipeStore
from ..units import FINGERPRINT_SIZE
from .double_cache import CacheEntry
from .hidestore import HiDeStore

_FORMAT = "hidestore-checkpoint-v4"
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
    """One save: the head, plus the parts it names that are not stored yet.

    Attributes:
        head: the JSON-serialisable head.
        new_parts: name -> blob of every named part no earlier save wrote.
        stale_parts: parts the previous head named and this one does not.
    """

    def __init__(
        self,
        head: Dict,
        new_parts: Dict[str, bytes],
        stale_parts: List[str],
        on_commit: Callable[[], None],
    ) -> None:
        self.head = head
        self.new_parts = new_parts
        self.stale_parts = stale_parts
        self._on_commit = on_commit

    def write(self, backend: StorageBackend, head_name: str) -> None:
        """Parts, then the head (the commit), then drop what it unnamed."""
        for name, blob in self.new_parts.items():
            backend.put_meta(name, blob)
        backend.put_meta(head_name, json.dumps(self.head).encode("utf-8"))
        self._on_commit()
        for name in self.stale_parts:
            try:
                backend.delete(name)
            except ObjectMissingError:
                pass
            except Exception:
                # Committed already: a part left behind is debris the next
                # writer sweeps, never a reason to fail (and roll back) the save.
                break


def checkpoint_document(system: HiDeStore) -> CheckpointDocument:
    """The volatile state of ``system`` as a head plus its unwritten parts.

    Must be taken between backups (never mid-version).  The archival
    container store and recipe store are *not* captured — persist those
    with durable stores.  Packs only what no earlier save stored: active
    containers allocated since, demotion maps recorded since, and the
    tables if the cache was mutated.
    The system is told what is stored only when the document is written
    (:meth:`CheckpointDocument.write`), so a document that is built and
    dropped costs nothing but its packing.
    """
    system.run_maintenance()  # queued filter work is not serialised
    cache, pool, chain = system.cache, system.pool, system.chain
    stored = {ref["name"] for ref in [*pool.persisted.values(), *chain.persisted.values()]}
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

    active_refs: Dict[int, Dict] = {}
    for container in pool.iter_containers():
        cid = container.container_id
        ref = pool.persisted.get(cid)
        if ref is None:
            blob = pack_container(container)
            ref = _part_ref(f"checkpoint-active-{cid:08d}", ".hdsc", blob)
            new_parts[ref["name"]] = blob
        active_refs[cid] = ref

    demoted_refs: Dict[int, Dict] = {}
    for version, moved in sorted(chain.demoted.items()):
        ref = chain.persisted.get(version)
        if ref is None:
            blob = pack_demoted(moved)
            ref = _part_ref(f"checkpoint-demoted-{version:08d}", ".bin", blob)
            new_parts[ref["name"]] = blob
        demoted_refs[version] = ref

    parts = [tables_ref, *active_refs.values(), *demoted_refs.values()]
    named = {ref["name"] for ref in parts}

    def on_commit() -> None:
        cache.persisted, cache.dirty = tables_ref, False
        pool.persisted = active_refs
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
    }
    return CheckpointDocument(head, new_parts, sorted(stored - named), on_commit)


def _check_live_sets(system: HiDeStore, tables: List[Dict[bytes, CacheEntry]]) -> None:
    """Refuse to save a state whose reload would lose a chunk.

    A stored container part is filtered on load to the fingerprints the
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
    backend = FileBackend(os.path.dirname(path) or ".")
    checkpoint_document(system).write(backend, os.path.basename(path))


def _checked_part(ref: Dict, read_part: Callable[[str], bytes]) -> bytes:
    """Fetch one named part and hold it to the head's size and SHA-256."""
    name = ref["name"]
    try:
        blob = read_part(name)
    except ObjectMissingError:
        raise ReproError(f"checkpoint part {name!r} is missing") from None
    if len(blob) != ref["size"]:
        raise ReproError(
            f"checkpoint part {name!r} is {len(blob)} bytes, the head says {ref['size']}"
        )
    if hashlib.sha256(blob).hexdigest() != ref["sha256"]:
        raise ReproError(f"checkpoint part {name!r} does not match the head's sha256")
    return blob


def system_from_document(
    document: Dict,
    container_store: Optional[ContainerStore] = None,
    recipe_store: Optional[RecipeStore] = None,
    read_part: Optional[Callable[[str], bytes]] = None,
) -> HiDeStore:
    """Rebuild a :class:`HiDeStore` from a checkpoint head + its stores.

    Args:
        document: a v4, v3 or v2 head (:attr:`CheckpointDocument.head`)
            or a whole v1 document.
        container_store: the archival store the system was using; defaults
            to a fresh in-memory store (tests).
        recipe_store: likewise for recipes.
        read_part: ``name -> bytes`` for the parts a head names.

    Keys this version no longer knows (the periodic-flatten period that
    heads and v1 documents carried until PR 23) are ignored.
    """
    fmt = document.get("format")
    if fmt not in (_FORMAT, _FORMAT_V3, _FORMAT_V2, _FORMAT_V1):
        raise ReproError(f"not a {_FORMAT} document")
    if fmt == _FORMAT:
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
    """Cache tables, active containers, location map, demotion maps (v3) of a head."""
    cache, pool, chain = system.cache, system.pool, system.chain
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

    #: cid -> fingerprints some table row places there: the live sets.
    live: Dict[int, set] = {}
    for table in tables:
        for fp, entry in table.items():
            live.setdefault(entry.cid, set()).add(fp)
    for name, ref in refs.items():
        try:
            container = unpack_container(_checked_part(ref, read_part))
        except struct.error as exc:
            raise ReproError(f"checkpoint part {name!r} does not unpack: {exc}") from exc
        cid = container.container_id
        keep = live.get(cid, ())
        for fp in container.fingerprints():
            if fp not in keep:
                container.remove(fp)  # demoted after the part was written
        if container.chunk_count != len(keep):
            raise ReproError(f"checkpoint part {name!r} lacks chunks the tables place in it")
        pool._active[cid] = container
        for fp in container.fingerprints():
            pool.location[fp] = cid
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
    container_store: Optional[ContainerStore] = None,
    recipe_store: Optional[RecipeStore] = None,
) -> HiDeStore:
    """Rebuild a :class:`HiDeStore` from a checkpoint head file (its parts
    sit beside it) + its stores."""
    if not os.path.exists(path):
        raise ReproError(f"no checkpoint at {path}")
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    backend = FileBackend(os.path.dirname(path) or ".")
    try:
        return system_from_document(document, container_store, recipe_store, backend.get)
    except ReproError as exc:
        raise ReproError(f"{path}: {exc}") from exc
