"""The checkpoint: a small head plus write-once parts.

Five groups, in the order the format is argued in ``core/checkpoint.py``:

* the round trip — a system that reloads from its checkpoint after every
  version is indistinguishable from one that never stopped;
* what a save writes — an expiry the head alone, an unchanged state nothing
  but the head;
* the v1 reader — a committed v1 repository opens, restores, and is v2
  after its next backup (and the same seed still produces the recipes and
  archival containers the parent commit wrote);
* damage — a part or active container object that disagrees with the head
  is a typed error that names it, and ``verify`` reports it;
* every crash point of the new write order enumerated on ``sqlite://``
  behind ``FaultInjectingBackend`` — a backup that adopts a container, one
  that releases active containers, a v4 head's first v5 save — and a
  restore, which has none;

then the replication planner's view of head and parts.
"""

import contextlib
import json
import os
import random
import shutil

import pytest

from repro.chaos.faults import FaultController
from repro.client import RemoteRepository
from repro.chunking import FastCDCChunker
from repro.chunking.fingerprint import Fingerprinter
from repro.chunking.stream import BackupStream
from repro.core import HiDeStore, load_checkpoint, save_checkpoint
from repro.core.checkpoint import checkpoint_document, pack_tables, unpack_tables
from repro.core.double_cache import CacheEntry
from repro.core.verify import container_name
from repro.storage.container_store import decode_container
from repro.errors import ReplicationError, ReproError
from repro.observability import MetricsRegistry
from repro.replication.repair import referenced_container_ids
from repro.replication.session import ReplicationSession
from repro.replication.targets import LocalMirror, RemoteMirror
from repro.server import DaemonThread
from repro.server.registry import RepositoryRegistry
from repro.storage import FileContainerStore, FileRecipeStore
from repro.storage.fake_s3 import FakeS3Server
from repro.storage.repo import CHECKPOINT_NAME, RepoStorage
from repro.units import KiB
from repro.storage.recipe import pack_recipe, unpack_recipe
from tests.conftest import FIXTURE_V2, copy_objects, fixture_v2_bytes, repo_state
from tests.crashpoints import (
    HEAD_FORMAT,
    Crash,
    Mutations,
    accounting,
    check_recovered,
    crash_run,
    head_of,
    named_parts,
    open_repo,
    part_names,
    recording_recipes,
    restored_sha,
    sha,
    stored_recipes,
)
from tests.test_write_once_containers import FIXTURE_V4, fresh_bytes

FIXTURE_V1 = os.path.join(os.path.dirname(__file__), "fixtures", "repo_v1")


def version_bytes(index):
    """Version ``index`` (0-based) of the evolving 96 KiB file the v1
    fixture was generated from: each version overwrites one more window."""
    data = bytearray(random.Random(19).randbytes(96 * 1024))
    for k in range(1, index + 1):
        offset = (k * 20 * 1024) % (80 * 1024)
        data[offset : offset + 12 * 1024] = random.Random(100 + k).randbytes(12 * 1024)
    return bytes(data)


def big_version_bytes(index):
    """The same shape at 5 MiB: more than one 4 MiB container is active, and
    the full one outlives the versions that only touch the other."""
    data = bytearray(random.Random(23).randbytes(5 * 1024 * 1024))
    for k in range(1, index + 1):
        offset = 4 * 1024 * 1024 + (k * 150 * 1024) % (800 * 1024)
        data[offset : offset + 100 * 1024] = random.Random(200 + k).randbytes(100 * 1024)
    return bytes(data)


def backup(repo, index, version=version_bytes):
    data = version(index)
    return repo.backup_blocks([data], [("data.bin", len(data))], tag=f"v{index + 1}")


# ----------------------------------------------------------------------
# (a) Round trip
# ----------------------------------------------------------------------
def token_stream(tokens):
    fingerprinter = Fingerprinter()
    return BackupStream(
        [fingerprinter.chunk(random.Random(t).randbytes(900 + t % 700)) for t in tokens]
    )


#: Six versions over a shifting token window.  Tokens 40..79 sit out
#: version 3 and come back in version 4, so with ``history_depth=2`` chunks
#: are re-found in the older table and with depth 1 they are stored twice.
ROUND_TRIP_VERSIONS = [
    range(0, 120),
    range(20, 140),
    [*range(20, 40), *range(80, 180)],
    range(40, 200),
    range(60, 210),
    range(100, 230),
]


def stores(root):
    return (
        FileContainerStore(os.path.join(root, "c"), capacity=32 * KiB),
        FileRecipeStore(os.path.join(root, "r")),
    )


def fresh_system(root, history_depth, deferred):
    container_store, recipe_store = stores(root)
    return HiDeStore(
        container_store=container_store,
        recipe_store=recipe_store,
        history_depth=history_depth,
        container_size=32 * KiB,
        deferred_maintenance=deferred,
    )


def volatile_state(system):
    return {
        "pool": {
            container.container_id: {fp: slot.data for fp, slot in container.items()}
            for container in system.pool.iter_containers()
        },
        "pool order": [c.container_id for c in system.pool.iter_containers()],
        "location": dict(system.pool.location),
        "tables": [
            {fp: (entry.size, entry.cid) for fp, entry in table.items()}
            for table in system.cache.export_tables()
        ],
        "tags": {v: system.deletion.containers_for(v) for v in system.deletion.tagged_versions()},
        "allocator": system.containers.next_id,
        "next_version": system._next_version,
        "report": (
            system.report.versions,
            system.report.logical_bytes,
            system.report.stored_bytes,
            system.report.disk_index_lookups,
        ),
    }


@pytest.mark.parametrize(
    "history_depth, deferred", [(1, False), (2, False), (1, True)],
    ids=["depth1", "depth2", "deferred"],
)
def test_reloading_after_every_version_equals_never_stopping(tmp_path, history_depth, deferred):
    steady_root, resumed_root = str(tmp_path / "steady"), str(tmp_path / "resumed")
    steady = fresh_system(steady_root, history_depth, deferred)
    resumed = fresh_system(resumed_root, history_depth, deferred)
    steady_path = os.path.join(steady_root, "ckpt.json")
    resumed_path = os.path.join(resumed_root, "ckpt.json")
    for index, tokens in enumerate(ROUND_TRIP_VERSIONS):
        steady.backup(token_stream(tokens))
        save_checkpoint(steady, steady_path)  # same saves, never reloaded
        resumed.backup(token_stream(tokens))
        save_checkpoint(resumed, resumed_path)
        resumed = load_checkpoint(resumed_path, *stores(resumed_root))
        assert volatile_state(resumed) == volatile_state(steady), f"after version {index + 1}"
        assert resumed.deferred_maintenance == deferred
    assert len(steady.pool.container_ids()) >= 2
    assert steady.deletion.tagged_versions()
    for version_id, tokens in enumerate(ROUND_TRIP_VERSIONS, start=1):
        restored = [chunk.data for chunk in resumed.restore_chunks(version_id)]
        assert restored == [chunk.data for chunk in token_stream(tokens)]
    # Both wrote the same files: the head and part bytes are a function of
    # the state, not of whether the system was ever reloaded.
    names = sorted(n for n in os.listdir(steady_root) if n.startswith("c") and n != "c")
    assert names == sorted(n for n in os.listdir(resumed_root) if n.startswith("c") and n != "c")
    for name in names:
        with open(os.path.join(steady_root, name), "rb") as a:
            with open(os.path.join(resumed_root, name), "rb") as b:
                assert a.read() == b.read(), name


def test_tables_part_round_trips_and_rejects_damage():
    tables = [
        {bytes([i]) * 20: CacheEntry(1000 + i, 3 + i % 2) for i in range(5)},
        {},
        {bytes([200 + i]) * 20: CacheEntry(7, 9) for i in range(3)},
    ]
    blob = pack_tables(tables)
    assert len(blob) == 8 + 3 * 4 + 8 * 28
    assert unpack_tables(blob) == tables
    with pytest.raises(ReproError):
        unpack_tables(blob[:-5])
    with pytest.raises(ReproError):
        unpack_tables(b"nope" + blob[4:])
    with pytest.raises(ReproError, match="20 bytes"):
        pack_tables([{b"short": CacheEntry(1, 1)}])


def test_a_document_that_is_never_written_marks_nothing_stored(tmp_path):
    system = fresh_system(str(tmp_path), 1, False)
    system.backup(token_stream(range(0, 60)))
    first = checkpoint_document(system)
    assert first.new_parts and not system.pool.persisted and system.cache.persisted is None
    assert first.new_containers and not system.containers.active_ids
    second = checkpoint_document(system)  # the first was dropped: pack again
    assert sorted(second.new_parts) == sorted(first.new_parts)
    assert second.new_containers == first.new_containers


def test_a_mid_version_state_is_refused_though_no_boundary_marked_the_tables(tmp_path):
    """``dirty`` is set where a version boundary changes the tables, not per
    chunk; a half-classified version must be refused all the same."""
    system = fresh_system(str(tmp_path), 1, False)
    system.backup(token_stream(range(0, 60)))
    save_checkpoint(system, str(tmp_path / "ckpt.json"))
    assert not system.cache.dirty
    hot = next(iter(system.cache.export_tables()[-1]))
    assert system.cache.classify(hot) is not None  # T1 hit: promoted into T2
    assert not system.cache.dirty
    with pytest.raises(ReproError, match="mid-version"):
        checkpoint_document(system)


# ----------------------------------------------------------------------
# (b) What a save writes
# ----------------------------------------------------------------------
@pytest.fixture
def controller():
    with FaultController(metrics=MetricsRegistry()) as installed:
        yield installed
        installed.disarm_all()


def is_part(name):
    return name.startswith("checkpoint-")


def test_expiry_writes_the_head_alone_and_an_unchanged_save_nothing_else(tmp_path, controller):
    repo = open_repo(f"sqlite://{tmp_path}/repo.db")
    for index in range(4):
        backup(repo, index, big_version_bytes)
    expired = head_of(repo.root)["demoted"]["1"]
    seen = Mutations(controller)
    repo.delete_oldest()
    puts = [(op, name) for op, name in seen.log if op in ("put", "put_meta")]
    assert puts == [("put_meta", CHECKPOINT_NAME)]
    # The one part it drops, after the head: the expired version's demotion map.
    assert [(op, name) for op, name in seen.log if is_part(name)] == [("delete", expired)]
    assert seen.log.index(("delete", expired)) > seen.log.index(("put_meta", CHECKPOINT_NAME))

    del seen.log[:]
    repo._save_checkpoint(repo._open())  # nothing changed since the last save
    assert seen.log == [("put_meta", CHECKPOINT_NAME)]

    del seen.log[:]
    before = set(named_parts(repo.root))
    kept = {ref["cid"] for ref in head_of(repo.root)["active"]}
    backup(repo, 4, big_version_bytes)
    after = set(named_parts(repo.root))
    written = [name for op, name in seen.log if op == "put_meta" and is_part(name)]
    assert sorted(written) == sorted(after - before)  # only what is new ...
    assert before & after
    kept &= {ref["cid"] for ref in head_of(repo.root)["active"]}
    assert kept  # ... and an old active container was kept as is, not rewritten
    assert not [
        name for op, name in seen.log
        if op == "put" and any(name.endswith(container_name(cid)) for cid in kept)
    ]
    assert any(name.startswith("checkpoint-tables-") for name in written)
    dropped = [name for op, name in seen.log if op == "delete" and is_part(name)]
    assert sorted(dropped) == sorted(before - after)
    assert seen.log.index(("put_meta", CHECKPOINT_NAME)) > max(
        seen.log.index(("put_meta", name)) for name in written
    )
    assert all(
        seen.log.index(("delete", name)) > seen.log.index(("put_meta", CHECKPOINT_NAME))
        for name in dropped
    )
    assert part_names(repo.root) == sorted(after)


@pytest.mark.parametrize("committed", [0, 3], ids=["first backup", "fourth backup"])
def test_a_backup_that_fails_at_its_head_rolls_its_parts_back(tmp_path, controller, committed):
    spec = f"sqlite://{tmp_path}/repo.db"
    repo = open_repo(spec)
    for index in range(committed):
        backup(repo, index)
    before = repo_state(spec)
    seen = Mutations(controller)
    controller.arm("enospc", op="put_meta", match_name=CHECKPOINT_NAME, count=1)
    with pytest.raises(ReproError, match="ENOSPC"):
        backup(repo, committed)
    assert any(op == "put_meta" and is_part(name) for op, name in seen.log)
    controller.disarm_all()
    assert repo_state(spec) == before  # parts included: nothing unnamed is left
    assert backup(repo, committed)["version_id"] == committed + 1
    assert part_names(spec) == named_parts(spec)
    assert repo.verify(deep=True)["ok"]


def test_an_interrupt_after_the_head_keeps_the_version_it_committed(tmp_path, controller):
    """Once the head names a version, an interrupt while the save drops the
    parts it no longer names is no rollback: a directory repository writes
    its recipes beside the backend, and rolling back deleted ``R_4`` under a
    head that commits it, so the next backup failed to update it."""
    spec = f"file://{tmp_path}/repo"
    repo = open_repo(spec)
    for index in range(3):
        backup(repo, index)

    def interrupted(_url, name):
        raise Crash(f"interrupted before deleting {name}")

    controller.arm("observe", op="delete", match_name="checkpoint-", callback=interrupted)
    with pytest.raises(Crash):
        backup(repo, 3)
    controller.disarm_all()
    reopened = open_repo(spec)
    assert [v["version_id"] for v in reopened.versions()] == [1, 2, 3, 4]
    assert restored_sha(reopened, 4) == sha(version_bytes(3))
    assert backup(reopened, 4)["version_id"] == 5
    assert reopened.verify(deep=True)["ok"]


def test_head_is_small_and_names_every_part(tmp_path):
    root = str(tmp_path / "repo")
    repo = open_repo(root)
    for index in range(3):
        backup(repo, index)
    head = head_of(root)
    assert head["format"] == HEAD_FORMAT
    assert os.path.getsize(os.path.join(root, CHECKPOINT_NAME)) < 4096
    assert part_names(root) == named_parts(root)
    for ref in head["parts"]:
        path = RepoStorage(root).local_path("checkpoint", ref["name"])
        with open(path, "rb") as handle:
            blob = handle.read()
        assert (len(blob), sha(blob)) == (ref["size"], ref["sha256"])
        assert ref["name"].rsplit(".", 1)[0].endswith(ref["sha256"][:16])
    assert head["active"] and not any(is_part(n) and "-active-" in n for n in part_names(root))
    for ref in head["active"]:
        path = RepoStorage(root).local_path("container", container_name(ref["cid"]))
        with open(path, "rb") as handle:
            blob = handle.read()
        assert (len(blob), sha(blob)) == (ref["size"], ref["sha256"])


# ----------------------------------------------------------------------
# (c) The v1 reader
# ----------------------------------------------------------------------
def load_expected():
    with open(os.path.join(FIXTURE_V1, "expected.json"), encoding="utf-8") as handle:
        return {int(version): digest for version, digest in json.load(handle).items()}


def test_v1_fixture_opens_restores_and_is_v2_after_the_next_backup(tmp_path):
    root = str(tmp_path / "repo")
    shutil.copytree(FIXTURE_V1, root)
    assert head_of(root)["format"] == "hidestore-checkpoint-v1"
    expected = load_expected()
    assert expected == {i + 1: sha(version_bytes(i)) for i in range(3)}

    repo = open_repo(root)
    assert [v["version_id"] for v in repo.versions()] == [1, 2, 3]
    for version_id, digest in expected.items():
        assert restored_sha(repo, version_id) == digest
    assert repo.verify(deep=True)["ok"]
    assert head_of(root)["format"] == "hidestore-checkpoint-v1"  # reads do not upgrade

    assert backup(repo, 3)["version_id"] == 4
    head = head_of(root)
    assert head["format"] == HEAD_FORMAT  # the parts layout of v2, its maps, container objects
    assert head["chunker"]["name"] == "fastcdc"  # cut as the release that wrote it
    assert "active_containers" not in head and "cache_tables" not in head
    assert part_names(root) == named_parts(root) != []
    reopened = open_repo(root)
    for index in range(4):
        assert restored_sha(reopened, index + 1) == sha(version_bytes(index))
    assert reopened.verify(deep=True)["ok"]


def test_v2_fixture_with_rewritten_recipes_opens_restores_backs_up_and_expires(tmp_path):
    """A repository whose recipes §4.3 rewrote in place (positive and ``-k``
    rows, no demotion maps) resolves through their positive rows, and keeps
    doing so beside the maps the new code records."""
    root = str(tmp_path / "repo")
    shutil.copytree(FIXTURE_V2, root)
    with open(os.path.join(FIXTURE_V2, "expected.json"), encoding="utf-8") as handle:
        expected = {int(version): digest for version, digest in json.load(handle).items()}
    assert expected == {i + 1: sha(fixture_v2_bytes(i)) for i in range(5)}
    cids = [e.cid for v in range(1, 5) for e in RepoStorage(root).recipe_store().peek(v).entries]
    assert any(cid > 0 for cid in cids) and any(cid < 0 for cid in cids)
    assert "demoted" not in head_of(root)
    assert head_of(root)["format"] == "hidestore-checkpoint-v2"

    repo = open_repo(root)
    for version_id, digest in expected.items():
        assert restored_sha(repo, version_id) == digest
    assert repo.verify(deep=True)["ok"]

    data = fixture_v2_bytes(5)
    plan = [("a.bin", 20 * KiB), ("b.bin", len(data) - 20 * KiB)]
    assert repo.backup_blocks([data], plan, tag="v6")["version_id"] == 6
    expected[6] = sha(data)
    assert sorted(head_of(root)["demoted"]) == ["5"]
    assert head_of(root)["format"] == HEAD_FORMAT
    assert repo.delete_oldest()["version_id"] == 1
    del expected[1]
    for reopened in (repo, open_repo(root)):
        assert [v["version_id"] for v in reopened.versions()] == [2, 3, 4, 5, 6]
        for version_id, digest in expected.items():
            assert restored_sha(reopened, version_id) == digest
        assert reopened.verify(deep=True)["ok"]
    assert part_names(root) == named_parts(root)


def test_same_seed_still_writes_the_parents_recipes_and_containers(tmp_path):
    """The fixtures *are* earlier commits' output for their seeds: a
    repository that cuts with FastCDC, as every one of theirs did, writes
    manifests byte for byte, each recipe as ``write_fresh`` wrote it before
    §4.3 rewrote it in place (every row ``0``), and containers that hold the
    same chunks per deletion-tag version and in the active pool — active
    containers are container objects now, and an adopted one keeps its CID,
    so names may differ — every one of which decodes.  (A new repository
    cuts with SeqCDC; the head it saves first records whichever chunker the
    engine carries.)"""
    v2_plan = lambda data: [("a.bin", 20 * KiB), ("b.bin", len(data) - 20 * KiB)]  # noqa: E731
    for fixture, count, version, plan in (
        (FIXTURE_V1, 3, version_bytes, lambda data: [("data.bin", len(data))]),
        (FIXTURE_V2, 5, fixture_v2_bytes, v2_plan),
    ):
        root = str(tmp_path / os.path.basename(fixture))
        repo = open_repo(root)
        repo._open(create=True).chunker = FastCDCChunker()
        for index in range(count):
            data = version(index)
            repo.backup_blocks([data], plan(data), tag=f"v{index + 1}")
        for kind in ("recipes", "manifests"):
            names = sorted(os.listdir(os.path.join(fixture, kind)))
            assert sorted(os.listdir(os.path.join(root, kind))) == names
            for name in names:
                with open(os.path.join(fixture, kind, name), "rb") as want:
                    with open(os.path.join(root, kind, name), "rb") as got:
                        assert got.read() == fresh_form(want.read(), kind), f"{kind}/{name}"
        reference = str(tmp_path / f"{os.path.basename(fixture)}-as-stored")
        shutil.copytree(fixture, reference)
        assert stored_chunks(root) == stored_chunks(reference)
        for name in os.listdir(os.path.join(root, "containers")):
            with open(os.path.join(root, "containers", name), "rb") as handle:
                decode_container(handle.read(), int(name[len("container-") : -len(".hdsc")]))


def stored_chunks(root):
    """``(fingerprint, size, payload)`` rows per deletion-tag version's
    archival containers, and of the active pool."""
    engine = open_repo(root)._open()

    def rows(containers):
        return sorted(
            (fp, slot.size, bytes(slot.data)) for c in containers for fp, slot in c.items()
        )

    chunks = {
        version: rows(map(engine.containers.peek, engine.deletion.containers_for(version)))
        for version in engine.deletion.tagged_versions()
    }
    chunks["active"] = rows(engine.pool.iter_containers())
    return chunks


def fresh_form(blob, kind):
    """A stored object as this version writes it: recipes with no row rewritten."""
    if kind != "recipes":
        return blob
    recipe = unpack_recipe(blob)
    for entry in recipe.entries:
        entry.cid = 0
    return pack_recipe(recipe)


# ----------------------------------------------------------------------
# (d) A part that disagrees with the head
# ----------------------------------------------------------------------
def flip_middle(blob):
    middle = len(blob) // 2
    return blob[:middle] + bytes([blob[middle] ^ 0xFF]) + blob[middle + 1 :]


@pytest.mark.parametrize(
    "damage, complaint",
    [
        (lambda blob: blob[:-7], "bytes"),
        (lambda blob: blob + b"x", "bytes"),
        (flip_middle, "sha256"),
        (None, "missing"),
    ],
    ids=["truncated", "grown", "bit flip", "deleted"],
)
@pytest.mark.parametrize("which", ["tables", "active"])
def test_a_part_that_disagrees_with_the_head_fails_the_open_by_name(
    tmp_path, which, damage, complaint
):
    """``active``: the active container object the head names."""
    root = str(tmp_path / "repo")
    repo = open_repo(root)
    for index in range(3):
        backup(repo, index)
    if which == "active":
        name = container_name(head_of(root)["active"][0]["cid"])
        path = RepoStorage(root).local_path("container", name)
    else:
        name = next(n for n in named_parts(root) if n.startswith(f"checkpoint-{which}-"))
        path = RepoStorage(root).local_path("checkpoint", name)
    if damage is None:
        os.remove(path)
    else:
        with open(path, "rb") as handle:
            blob = handle.read()
        with open(path, "wb") as handle:
            handle.write(damage(blob))

    with pytest.raises(ReproError) as caught:
        open_repo(root).versions()
    assert name in str(caught.value) and complaint in str(caught.value)
    report = open_repo(root).verify(deep=True)
    assert not report["ok"]
    assert report["issues"][0].startswith("repository unreadable: ")
    assert name in report["issues"][0]
    assert os.path.exists(path) == (damage is not None)  # a failed open sweeps nothing


# ----------------------------------------------------------------------
# Crash points of the new write order
# ----------------------------------------------------------------------
def build_v2(db, version=version_bytes, count=4):
    repo = open_repo(f"sqlite://{db}")
    for index in range(count):
        backup(repo, index, version)
    repo.storage.close()
    return {i + 1: sha(version(i)) for i in range(count)}


def build_v1(db):
    copy_objects(FIXTURE_V1, f"sqlite://{db}")
    return load_expected()


def build_v4(db):
    copy_objects(FIXTURE_V4, f"sqlite://{db}")
    with open(os.path.join(FIXTURE_V4, "expected.json"), encoding="utf-8") as handle:
        return {int(version): digest for version, digest in json.load(handle).items()}


RESTORE = "restore"

SCENARIOS = {
    "incremental backup": (build_v2, lambda repo: backup(repo, 4), {5: sha(version_bytes(4))}),
    # 5 MiB: the head keeps naming a full active container it does not rewrite.
    "incremental backup, two active containers": (
        lambda db: build_v2(db, big_version_bytes),
        lambda repo: backup(repo, 4, big_version_bytes),
        {5: sha(big_version_bytes(4))},
    ),
    "delete_oldest": (build_v2, lambda repo: repo.delete_oldest(), {}),
    "v1 to v2 upgrade save": (build_v1, lambda repo: backup(repo, 3), {4: sha(version_bytes(3))}),
    # Demotion adopts version 4's container: nothing is copied, and the
    # save only writes the new active container and the head.
    "fresh backup adopting a container": (
        lambda db: build_v2(db, fresh_bytes),
        lambda repo: backup(repo, 4, fresh_bytes),
        {5: sha(fresh_bytes(4))},
    ),
    # Compaction merges the active containers the head named: the save
    # releases them, deleting their objects after the head.
    "incremental backup releasing active containers": (
        lambda db: build_v2(db, fixture_v2_bytes, count=3),
        lambda repo: backup(repo, 3, fixture_v2_bytes),
        {4: sha(fixture_v2_bytes(3))},
    ),
    # Version 4 again: the v4 part's container stays active, so the save
    # writes it as a container object below the allocator mark.
    "v4 to v5 first save": (
        build_v4, lambda repo: backup(repo, 3, fixture_v2_bytes), {5: sha(fixture_v2_bytes(3))}
    ),
    # Six backups nobody restored leave R_1..R_4 chained: a fresh engine
    # restoring version 1 resolves them and records no mutation to kill.
    RESTORE: (lambda db: build_v2(db, count=6), lambda repo: restored_sha(repo, 1), {}),
}


#: What ``check_recovered`` backs up; by default fresh bytes, which drain the
#: active pool.  The v4 container must stay active across two backups: the
#: first writes it as an object — again, where a dead save already had.
RECOVERY = {"v4 to v5 first save": [fixture_v2_bytes(3), fixture_v2_bytes(3)]}
ANY_RECOVERY = [random.Random(4242).randbytes(40 * 1024)]


@pytest.fixture
def fresh_recipes():
    """version -> the bytes ``write_fresh`` stored for it (the same in every
    run: backups are deterministic)."""
    with recording_recipes() as written:
        yield written


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_every_crash_point_recovers(tmp_path, controller, scenario, record_property, fresh_recipes):
    build, operation, new_digests = SCENARIOS[scenario]
    pristine = str(tmp_path / "pristine.db")
    digests = {**build(pristine), **new_digests}
    next_version_before = head_of(f"sqlite://{pristine}")["next_version"]
    pristine_repo = open_repo(f"sqlite://{pristine}")
    stored = stored_recipes(pristine_repo, [v["version_id"] for v in pristine_repo.versions()])
    pristine_repo.storage.close()
    if not scenario.startswith("v"):  # a fixture's recipes predate this code
        assert stored == {v: fresh_recipes[v] for v in stored}
    written = fresh_recipes
    written.update(stored)

    def attempt(crash_after=None, torn=None):
        """One run of ``operation`` on a fresh copy; the mutations it got through."""
        db = str(tmp_path / f"crash-{crash_after}-{'torn' if torn else 'clean'}.db")
        shutil.copy(pristine, db)
        spec = f"sqlite://{db}"
        log, _crashed = crash_run(controller, spec, operation, crash_after, torn)
        return spec, log

    clean, recorded = attempt()
    if scenario == RESTORE:  # a reader writes nothing: there is no point to die at
        assert recorded == []
    else:
        assert ("put_meta", CHECKPOINT_NAME) in recorded
    after_head = recorded[recorded.index(("put_meta", CHECKPOINT_NAME)) + 1 :] if recorded else []
    released = [n for op, n in after_head if op == "delete" and n.startswith("containers/")]
    if scenario == "incremental backup releasing active containers":
        assert released
    if scenario == "fresh backup adopting a container":
        # The only containers written are the new version's, by the save.
        new_head = head_of(attempt()[0])
        adopted = [ref["cid"] for ref in head_of(f"sqlite://{pristine}")["active"]]
        assert new_head["deletion_tags"]["4"] == adopted
        assert [n for op, n in recorded if op == "put" and n.startswith("containers/")] == [
            "containers/" + container_name(ref["cid"]) for ref in new_head["active"]
        ]
    recovery = RECOVERY.get(scenario, ANY_RECOVERY)
    head_at = len(recorded) - len(after_head)  # the first death after the head
    probe = open_repo(clean)
    committed = accounting(probe)
    probe.storage.close()
    points = 0
    for done in range(len(recorded)):  # dies before mutation ``done`` (0-based)
        spec, log = attempt(crash_after=done)
        assert log == recorded[:done], "the run is not deterministic"
        check_recovered(
            spec, digests, next_version_before, written, recovery,
            committed if recorded and done >= head_at else None,
        )
        points += 1
    for done, (op, name) in enumerate(recorded):  # dies tearing a part write
        if op == "put_meta" and is_part(name):
            spec, log = attempt(crash_after=done + 1, torn=name)
            assert log == recorded[: done + 1]
            assert name in part_names(spec)  # the torn blob did land
            check_recovered(spec, digests, next_version_before, written, recovery)
            points += 1
    spec, _ = attempt()  # and the run nothing killed
    check_recovered(spec, digests, next_version_before, written, recovery, committed)
    if scenario in RECOVERY:  # the v4 container did stay active throughout
        assert 10 in [ref["cid"] for ref in head_of(spec)["active"]]
    record_property("crash_points", points)
    print(f"{scenario}: {points} crash points over {len(recorded)} mutations, all recovered")
    assert points >= len(recorded) + (1 if scenario not in ("delete_oldest", RESTORE) else 0)


def test_a_lost_middle_recipe_is_not_mistaken_for_an_interrupted_expiry(tmp_path):
    """Only the oldest version is ever expired, so only a tag older than
    every retained recipe is one: a recipe lost mid-chain must cost no
    container, or one lost recipe becomes several unrestorable versions."""
    root = str(tmp_path / "repo")
    repo = open_repo(root)
    for index in range(6):
        backup(repo, index)
    tags = head_of(root)["deletion_tags"]
    assert tags["3"] and sorted(map(int, tags)) == [1, 2, 3, 4, 5]
    lost = RepoStorage(root).local_path("recipe", "recipe-00000003.hdsr")
    with open(lost, "rb") as handle:
        blob = handle.read()
    os.remove(lost)
    stored = repo_state(root)["containers"]

    damaged = open_repo(root)
    assert [v["version_id"] for v in damaged.versions()] == [1, 2, 4, 5, 6]
    report = damaged.verify(deep=True)  # a fresh open of its own
    assert not report["ok"] and any("R_3" in issue for issue in report["issues"])
    for index in (0, 1, 3, 4, 5):  # its demotion map still serves R_1 and R_2
        assert restored_sha(damaged, index + 1) == sha(version_bytes(index))
    assert repo_state(root)["containers"] == stored
    assert damaged._open().deletion.tagged_versions() == [1, 2, 3, 4, 5]
    storage = RepoStorage(root)
    assert referenced_container_ids(storage) >= {int(cid) for cid in tags["3"]}

    with open(lost, "wb") as handle:  # repaired, from a mirror say: nothing else was lost
        handle.write(blob)
    repaired = open_repo(root)
    for index in range(6):
        assert restored_sha(repaired, index + 1) == sha(version_bytes(index))
    assert repaired.verify(deep=True)["ok"]


# ----------------------------------------------------------------------
# (e) Replication sees head and parts
# ----------------------------------------------------------------------
def ships_of(session):
    return sorted((action.kind, action.name) for action in session.plan().ships)


def test_sync_ships_the_head_alone_after_an_expiry_and_skips_unchanged_parts(tmp_path):
    source_root, mirror_root = str(tmp_path / "source"), str(tmp_path / "mirror")
    source = open_repo(source_root)
    for index in range(4):
        backup(source, index, big_version_bytes)
    session = ReplicationSession(source_root, LocalMirror(mirror_root), journal="")
    first = session.run()
    assert first.committed and ships_of(session) == []
    assert repo_state(mirror_root) == repo_state(source_root)

    source.delete_oldest()
    assert ships_of(session) == [("checkpoint", CHECKPOINT_NAME)]
    report = session.run()
    assert report.objects_shipped == 1 and report.bytes_shipped < 4096
    assert report.objects_deleted >= 3  # recipe, manifest, tagged container(s)
    assert repo_state(mirror_root) == repo_state(source_root)

    before = set(named_parts(source_root))
    backup(source, 4, big_version_bytes)
    after = set(named_parts(source_root))
    assert before & after and after - before
    plan = session.plan()
    shipped_parts = {a.name for a in plan.ships if a.kind == "checkpoint"} - {CHECKPOINT_NAME}
    assert shipped_parts == after - before  # every unchanged part is skipped
    assert all(not a.staged for a in plan.ships if a.name in shipped_parts)
    head_ship = next(a for a in plan.ships if a.name == CHECKPOINT_NAME)
    assert head_ship.staged and plan.ships[-1] is head_ship
    assert plan.renames[-1].name == CHECKPOINT_NAME
    stale = [ref.name for ref in plan.deletes if ref.kind == "checkpoint"]
    assert sorted(stale) == sorted(before - after) and plan.deletes[-len(stale) :] == [
        ref for ref in plan.deletes if ref.kind == "checkpoint"
    ]
    session.run()
    assert repo_state(mirror_root) == repo_state(source_root)
    mirror = open_repo(mirror_root)
    for index in range(1, 5):
        assert restored_sha(mirror, index + 1) == sha(big_version_bytes(index))
    assert mirror.verify(deep=True)["ok"]


def land_without_commit(source_root, mirror_target, plan):
    """Ship everything a plan ships; the commit is the caller's to send."""
    storage = RepoStorage(source_root)
    for action in plan.ships:
        blob = storage.read_object(action.kind, action.name)
        mirror_target.put(action.kind, action.name, blob, staged=action.staged)


def synced_pair(tmp_path):
    source_root, mirror_root = str(tmp_path / "source"), str(tmp_path / "mirror")
    source = open_repo(source_root)
    for index in range(3):
        backup(source, index)
    mirror_target = LocalMirror(mirror_root)
    session = ReplicationSession(source_root, mirror_target, journal="")
    session.run()
    return source, mirror_root, mirror_target, session


def test_mirror_promoted_mid_sync_opens_on_its_old_head(tmp_path):
    source, mirror_root, mirror_target, session = synced_pair(tmp_path)
    old_head = head_of(mirror_root)

    backup(source, 3)
    source.delete_oldest()
    land_without_commit(source.root, mirror_target, session.plan())  # no commit comes
    landed = part_names(mirror_root)
    assert set(landed) > set(named_parts(mirror_root))

    promoted = open_repo(mirror_root)
    assert [v["version_id"] for v in promoted.versions()] == [1, 2, 3]
    for index in range(3):
        assert restored_sha(promoted, index + 1) == sha(version_bytes(index))
    assert promoted.verify(deep=True)["ok"]
    assert head_of(mirror_root) == old_head
    assert part_names(mirror_root) == landed  # reading sweeps nothing

    # Its first write as a primary does: the landed parts are debris now.
    data = random.Random(7).randbytes(30 * 1024)
    assert promoted.backup_blocks([data], [("data.bin", len(data))])["version_id"] == 4
    assert part_names(mirror_root) == named_parts(mirror_root)
    assert promoted.verify(deep=True)["ok"]


@contextlib.contextmanager
def mirror_of_kind(kind, tmp_path):
    """``(mirror root, replication target, open_reader)`` for one kind of mirror."""
    if kind == "daemon":
        with DaemonThread(str(tmp_path / "served")) as address:
            target = RemoteMirror(address, "mirror")
            try:
                yield str(tmp_path / "served" / "mirror"), target, lambda: RemoteRepository(
                    address, "mirror"
                )
            finally:
                target.close()
        return
    root = str(tmp_path / "mirror") if kind == "directory" else f"sqlite://{tmp_path}/mirror.db"
    yield root, LocalMirror(root), lambda: open_repo(root)


@pytest.mark.parametrize("kind", ["directory", "sqlite", "daemon"])
def test_reads_on_the_mirror_between_the_part_puts_and_the_commit_keep_the_parts(tmp_path, kind):
    """The daemon lands ``REPLICATE_PUT`` objects under the tenant's read
    lock, so restores, ``versions`` and ``verify`` (always a fresh engine)
    run on the mirror while a sync's parts and manifest are in place and
    its recipe and head are not: the commit must still find all of them."""
    source_root = str(tmp_path / "source")
    source = open_repo(source_root)
    for index in range(3):
        backup(source, index)
    with mirror_of_kind(kind, tmp_path) as (mirror_root, mirror_target, open_reader):
        session = ReplicationSession(source_root, mirror_target, journal="")
        session.run()

        backup(source, 3)
        source.delete_oldest()
        plan = session.plan()
        # Write-once recipes: the backup ships its own recipe and no
        # rewritten R_3; what R_3's update learned travels as a part.
        assert [a.name for a in plan.ships if a.kind == "recipe"] == ["recipe-00000004.hdsr"]
        land_without_commit(source_root, mirror_target, plan)
        landed = repo_state(mirror_root)
        unnamed = set(landed["checkpoint"]) - {CHECKPOINT_NAME} - set(named_parts(mirror_root))
        assert any(name.startswith("checkpoint-demoted-00000003-") for name in unnamed)
        assert "manifest-00000004.txt" in landed["manifests"]

        reader = open_reader()  # a cold open: every commit invalidates the engine
        assert [v["version_id"] for v in reader.versions()] == [1, 2, 3]
        assert restored_sha(reader, 3) == sha(version_bytes(2))
        assert reader.stats()["versions"] == 3
        assert reader.verify(deep=True)["ok"]
        assert repo_state(mirror_root) == landed, "reading changed something"

        mirror_target.commit(plan.renames, plan.deletes)
        assert repo_state(mirror_root) == repo_state(source_root)
        caught_up = open_reader()
        assert [v["version_id"] for v in caught_up.versions()] == [2, 3, 4]
        for index in range(1, 4):
            assert restored_sha(caught_up, index + 1) == sha(version_bytes(index))
        assert caught_up.verify(deep=True)["ok"]
        if kind == "daemon":
            reader.close()
            caught_up.close()


def test_commit_refuses_a_head_whose_part_is_not_on_the_mirror(tmp_path):
    source, mirror_root, mirror_target, session = synced_pair(tmp_path)
    backup(source, 3)
    plan = session.plan()
    land_without_commit(source.root, mirror_target, plan)
    before = repo_state(mirror_root)
    lost = next(iter(set(part_names(mirror_root)) - set(named_parts(mirror_root))))
    os.remove(RepoStorage(mirror_root).local_path("checkpoint", lost))

    with pytest.raises(ReplicationError, match=lost):
        mirror_target.commit(plan.renames, plan.deletes)
    del before["checkpoint"][lost]
    assert repo_state(mirror_root) == before  # nothing was renamed
    mirror = open_repo(mirror_root)
    assert [v["version_id"] for v in mirror.versions()] == [1, 2, 3]  # the old head

    session.run()  # the next sync ships the part again, by presence
    assert repo_state(mirror_root) == repo_state(source.root)
    assert open_repo(mirror_root).verify(deep=True)["ok"]


def test_object_vocabulary_knows_head_and_parts(tmp_path):
    root = str(tmp_path / "repo")
    tables = "checkpoint-tables-0123456789abcdef.bin"
    active = "checkpoint-active-00000007-0123456789abcdef.hdsc"
    object_path = RepoStorage(root).local_path
    assert object_path("checkpoint", CHECKPOINT_NAME) == os.path.join(root, CHECKPOINT_NAME)
    assert object_path("checkpoint", tables) == os.path.join(root, tables)
    assert object_path("checkpoint", active) == os.path.join(root, active)
    assert object_path("container", "container-00000007.hdsc") == os.path.join(
        root, "containers", "container-00000007.hdsc"
    )
    for bad in (
        "checkpoint.json.staged", "checkpoint-tables-XYZ.bin", "checkpoint-active-7-0123456789abcdef.hdsc",
        "../checkpoint.json", "checkpoint-tables-0123456789abcdef.bin/x", "checkpoint",
    ):
        with pytest.raises(ReplicationError):
            object_path("checkpoint", bad)
    with pytest.raises(ReplicationError):
        object_path("tables", tables)


def test_dropping_a_tenant_removes_its_checkpoint_parts():
    with FakeS3Server("127.0.0.1") as server:
        registry = RepositoryRegistry(server.url("bucket", "drop-parts"), metrics=MetricsRegistry())
        handle = registry.get("tenant", create=True)
        for index in range(3):
            backup(handle.repository, index)
        spec = handle.repository.root
        assert len(part_names(spec)) >= 2
        handle.repository.storage.close()
        assert registry.drop("tenant") > 0
        assert all(section == {} for section in repo_state(spec).values())
