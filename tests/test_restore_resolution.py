"""Restores resolve chained recipe rows from memory and write nothing.

``HiDeStore._restore_rows`` resolves a non-positive row (``0``, or ``-k``
chaining to a newer recipe) from the chain's archival-location index, else
from the active pool — what Algorithm 1 would have written there, without
writing it.  In the order DESIGN §1.1 argues it:

* (a) the oracle — after every operation of one schedule (backups, whole
  and partial restores, expiries, reopens, ``retire``), every retained
  version resolves row for row as a twin whose chain was flattened does,
  and every stored recipe is still the bytes ``write_fresh`` wrote;
* (b) no restore flavour mutates the backend, on a live or a fresh engine,
  directory or ``sqlite://``;
* (c) a recipe landed behind the engine costs one index rebuild, never a
  wrong byte (the chunk that is nowhere: ``test_flatten_once``);
* (d) the index stays what a rebuild would read, across 3·W expiries;
* (e) concurrent restores racing one backup are byte-identical and build
  the index once.
"""

import contextlib
import os
import random
import sys
import threading

import pytest

from repro.chaos.faults import FaultController
from repro.core import load_checkpoint, save_checkpoint, verify_system
from repro.core.hidestore import HiDeStore
from repro.core.recipe_chain import RecipeChain
from repro.errors import ReproError
from repro.observability import MetricsRegistry
from repro.repository import LocalRepository
from repro.storage import FileContainerStore, FileRecipeStore
from repro.storage.backend import open_backend
from repro.storage.container_store import BackendContainerStore
from repro.storage.fake_s3 import FakeS3Server
from repro.storage.recipe import BackendRecipeStore, pack_recipe
from repro.storage.repo import RepoStorage
from repro.units import KiB
from tests.conftest import (
    FIXTURE_V2,
    algorithm_1_rows,
    copy_objects,
    fixture_v2_bytes,
    make_stream,
    resolved_rows,
)


def version_bytes(index):
    """Version ``index`` (0-based) of an evolving 96 KiB file: each version
    overwrites one more window, so older versions' chunks go cold."""
    data = bytearray(random.Random(47).randbytes(96 * 1024))
    for k in range(1, index + 1):
        offset = (k * 20 * 1024) % (80 * 1024)
        data[offset : offset + 12 * 1024] = random.Random(500 + k).randbytes(12 * 1024)
    return bytes(data)


HALF = 48 * 1024


def backup(repo, index):
    data = version_bytes(index)
    return repo.backup_blocks([data], [("a.bin", HALF), ("b.bin", len(data) - HALF)])


def restored(repo, version_id, **kwargs):
    return b"".join(repo.restore(version_id, **kwargs)[1])


def open_repo(spec):
    return LocalRepository(spec, metrics=MetricsRegistry())


def spec_of(kind, tmp_path, name="repo"):
    return str(tmp_path / name) if kind == "directory" else f"sqlite://{tmp_path}/{name}.db"


# ----------------------------------------------------------------------
# (a) The oracle: Algorithm 1, row for row
# ----------------------------------------------------------------------
#: Token windows.  24..39 sit out version 3 and come back in 4 (re-found at
#: depth 2, stored again at depth 1: then one fingerprint is archival for
#: old versions and active for new ones); 0..7 and 24..31 come back long
#: after they were demoted.
VERSIONS = [
    range(0, 48),
    range(8, 56),
    [*range(8, 24), *range(40, 72)],
    range(16, 80),
    range(32, 88),
    [*range(0, 8), *range(56, 96)],
    range(56, 104),
    range(64, 112),
    [*range(24, 32), *range(64, 120)],
]

SCHEDULE = [
    ("backup", 0), ("backup", 1), ("backup", 2),
    ("restore", 1), ("restore", 3), ("partial", 2),
    ("backup", 3), ("restore", 1), ("delete",),
    ("partial", 2), ("reopen",), ("restore", 2),
    ("backup", 4), ("backup", 5), ("restore", 3), ("delete",),
    ("reopen",), ("backup", 6), ("partial", 4), ("restore", 3),
    ("retire",), ("restore", 4), ("delete",),
    ("prime",), ("backup", 7), ("restore", 5), ("backup", 8), ("delete",), ("restore", 6),
]


def file_stores(root):
    return lambda: (
        FileContainerStore(os.path.join(root, "c"), capacity=8 * KiB),
        FileRecipeStore(os.path.join(root, "r")),
    )


def engine(stores, depth, deferred):
    container_store, recipe_store = stores()
    return HiDeStore(
        container_store=container_store,
        recipe_store=recipe_store,
        history_depth=depth,
        container_size=8 * KiB,
        deferred_maintenance=deferred,
    )


def run(system, root, step, stores):
    """Apply one schedule step; returns the (possibly reopened) system."""
    kind = step[0]
    if kind == "backup":
        system.backup(make_stream(list(VERSIONS[step[1]])))
    elif kind == "restore":
        want = make_stream(list(VERSIONS[step[1] - 1])).fingerprints()
        assert [c.fingerprint for c in system.restore_chunks(step[1])] == want
    elif kind == "partial":
        want = make_stream(list(VERSIONS[step[1] - 1])).fingerprints()[5:30]
        entries = system.resolved_restore_range(step[1], lambda _rows: slice(5, 30))
        assert [entry.fingerprint for entry in entries] == want
    elif kind == "delete":
        system.delete_oldest()
    elif kind == "reopen":
        path = os.path.join(root, "ckpt.json")
        save_checkpoint(system, path)
        system = load_checkpoint(path, *stores())
    elif kind == "retire":
        system.retire()
    else:
        system.prime_from_recipe()
    return system


@pytest.mark.parametrize("depth", [1, 2], ids=["depth1", "depth2"])
@pytest.mark.parametrize("deferred", [False, True], ids=["inline", "deferred"])
def test_every_version_resolves_as_algorithm_1_would(tmp_path, depth, deferred):
    ours_root, twin_root = str(tmp_path / "ours"), str(tmp_path / "twin")
    ours_stores, twin_stores = file_stores(ours_root), file_stores(twin_root)
    ours, twin = engine(ours_stores, depth, deferred), engine(twin_stores, depth, deferred)
    for step in SCHEDULE:
        writes = ours.io.recipe_writes
        ours = run(ours, ours_root, step, ours_stores)
        twin = run(twin, twin_root, step, twin_stores)
        if step[0] in ("restore", "partial"):
            assert ours.io.recipe_writes == writes, step
        assert resolved_rows(ours) == algorithm_1_rows(twin), step
    assert ours.chain.stats.flatten_runs == 0  # Algorithm 1 is the twin's alone


@pytest.mark.parametrize("depth", [1, 2], ids=["depth1", "depth2"])
def test_a_retired_store_reopens_from_its_checkpoint(tmp_path, depth):
    """``retire()`` records where the drained chunks went in the demotion
    maps, not in the recipes, so the store is durable through a checkpoint:
    without one a reopen cannot prime, with one every version restores."""
    stores = file_stores(str(tmp_path))
    system = engine(stores, depth, False)
    for tokens in VERSIONS[:5]:
        system.backup(make_stream(list(tokens)))
    system.retire()
    path = str(tmp_path / "ckpt.json")
    save_checkpoint(system, path)

    bare = HiDeStore(*stores(), history_depth=depth, container_size=8 * KiB)
    with pytest.raises(ReproError, match="save a checkpoint"):
        bare.prime_from_recipe()

    reopened = load_checkpoint(path, *stores())
    assert reopened._retired and reopened.pool.hot_bytes() == 0

    def restores_everything():
        for version in reopened.version_ids():
            want = make_stream(list(VERSIONS[version - 1])).fingerprints()
            assert [c.fingerprint for c in reopened.restore_chunks(version)] == want, version

    restores_everything()
    assert reopened.prime_from_recipe() == len(VERSIONS[4])
    report = reopened.backup(make_stream(list(VERSIONS[5])))
    assert report.duplicate_chunks == len(range(56, 88))  # what R_5 primed
    restores_everything()
    assert verify_system(reopened).ok


@contextlib.contextmanager
def backend_of_kind(kind, tmp_path):
    with contextlib.ExitStack() as stack:
        url = f"sqlite://{tmp_path}/repo.db"
        if kind == "fake-s3":
            url = stack.enter_context(FakeS3Server("127.0.0.1")).url("bucket", "write-once")
        backend = open_backend(url)
        stack.callback(backend.close)  # before the server stops
        yield backend


@pytest.fixture
def fresh_bytes(monkeypatch):
    """version -> the bytes ``write_fresh`` stored for it, as it stores them."""
    written = {}
    original = RecipeChain.write_fresh

    def recording(chain, recipe):
        written[recipe.version_id] = pack_recipe(recipe)
        return original(chain, recipe)

    monkeypatch.setattr(RecipeChain, "write_fresh", recording)
    return written


@pytest.mark.parametrize("kind", ["directory", "sqlite", "fake-s3"])
def test_every_stored_recipe_stays_as_write_fresh_wrote_it(tmp_path, kind, fresh_bytes):
    with contextlib.ExitStack() as stack:
        if kind == "directory":
            stores = file_stores(str(tmp_path))
        else:
            backend = stack.enter_context(backend_of_kind(kind, tmp_path))
            stores = lambda: (  # noqa: E731
                BackendContainerStore(backend, capacity=8 * KiB, prefix="containers/"),
                BackendRecipeStore(backend, prefix="recipes/"),
            )
        system = engine(stores, 2, True)
        for step in SCHEDULE:
            system = run(system, str(tmp_path), step, stores)
            recipes = system.recipes
            assert {v: pack_recipe(recipes.peek(v)) for v in recipes.version_ids()} == {
                v: fresh_bytes[v] for v in recipes.version_ids()
            }, step
        assert len(fresh_bytes) == sum(1 for step in SCHEDULE if step[0] == "backup")


# ----------------------------------------------------------------------
# (b) No restore mutates the backend
# ----------------------------------------------------------------------
@pytest.fixture
def mutations():
    """Every backend mutation while the test runs."""
    log = []
    with FaultController(metrics=MetricsRegistry()) as controller:
        for op in ("put", "put_meta", "rename", "delete"):
            controller.arm("observe", op=op, count=-1,
                           callback=lambda _url, name, op=op: log.append((op, name)))
        yield log
        controller.disarm_all()


FLAVOURS = {
    "whole": lambda repo: restored(repo, 1) == version_bytes(0),
    "file": lambda repo: restored(repo, 2, file="b.bin") == version_bytes(1)[HALF:],
    "workers": lambda repo: restored(repo, 3, workers=2) == version_bytes(2),
    "verify": lambda repo: restored(repo, 1, verify=True) == version_bytes(0),
    "newest": lambda repo: restored(repo, 5) == version_bytes(4),
    "engine": lambda repo: repo._open().restore(2).chunks > 0,
    "entry range": lambda repo: len(
        repo._open().resolved_restore_range(1, lambda _rows: slice(2, 9))
    ) == 7,
    "resolved": lambda repo: len(repo._open().resolved_entries(3)) > 0,
}


@pytest.mark.parametrize("kind", ["directory", "sqlite"])
def test_no_restore_mutates_the_backend(tmp_path, mutations, kind):
    spec = spec_of(kind, tmp_path)
    live = open_repo(spec)
    for index in range(5):
        backup(live, index)
    assert ("put", "recipes/recipe-00000005.hdsr") in mutations  # it sees the backups' writes
    for name, flavour in FLAVOURS.items():
        del mutations[:]
        assert flavour(live), name
        fresh = open_repo(spec)
        assert flavour(fresh), name
        assert mutations == [], name
        assert fresh.metrics.snapshot()["counters"].get("restore.index_builds", 0) <= 1
        fresh.storage.close()
    assert live.metrics.snapshot()["counters"]["restore.index_builds"] == 1
    live.storage.close()


# ----------------------------------------------------------------------
# (c) A recipe landed behind the engine costs one rebuild
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", ["directory", "sqlite"])
def test_a_recipe_landed_behind_the_engine_costs_one_rebuild(tmp_path, kind):
    """Recipes are write-once now, but a repository written before that
    resolves its chained rows from the positive rows its rewritten recipes
    carry, so a recipe landing there (a mirror that synced in between, say)
    still changes what the index must say."""
    spec = spec_of(kind, tmp_path)
    copy_objects(FIXTURE_V2, spec)
    storage = RepoStorage(spec)
    name = "recipe-00000003.hdsr"
    updated = storage.read_object("recipe", name)
    # R_3 as write_fresh left it, before its previous-recipe update landed:
    # every row active.
    stale = storage.recipe_store().peek(3)
    demoted = {e.fingerprint for e in stale.entries if e.cid > 0}
    assert any(e.fingerprint in demoted for e in storage.recipe_store().peek(2).entries)
    for entry in stale.entries:
        entry.cid = 0
    storage.write_object("recipe", name, pack_recipe(stale))

    reader = open_repo(spec)
    assert restored(reader, 4) == fixture_v2_bytes(3)  # builds the index off stale R_3
    engine_ = reader._open()
    assert engine_.io.index_builds == 1
    storage.write_object("recipe", name, updated)  # the update lands

    # R_2 chains to R_3 for the chunks R_3 now says were demoted: neither
    # the index nor the active pool knows them until the rebuild.
    assert restored(reader, 2) == fixture_v2_bytes(1)
    assert engine_.io.index_builds == 2
    assert restored(reader, 2, file="b.bin") == fixture_v2_bytes(1)[20 * KiB :]
    assert engine_.io.index_builds == 2
    assert reader.metrics.snapshot()["counters"]["restore.index_builds"] == 2
    assert storage.read_object("recipe", name) == updated
    storage.close()
    reader.storage.close()


# ----------------------------------------------------------------------
# (d) The index stays bounded
# ----------------------------------------------------------------------
def test_the_index_is_what_a_rebuild_reads_across_three_windows_of_expiry():
    window = 4
    system = HiDeStore(container_size=8 * KiB)
    for version in range(1, window + 1):
        system.backup(make_stream(list(range(version * 10, version * 10 + 40))))
    sizes = []
    for version in range(window + 1, 4 * window + 1):
        system.backup(make_stream(list(range(version * 10, version * 10 + 40))))
        system.restore(system.version_ids()[0])
        system.delete_oldest()
        cold = RecipeChain(BackendRecipeStore(system.recipes.backend))
        cold.demoted = system.chain.demoted  # what a reopened engine loads
        rebuilt = cold.archival_index(system.recipes.peek)
        assert system.chain.index == rebuilt
        assert len(system.version_ids()) == window
        sizes.append(len(rebuilt))
    assert system.io.index_builds == 1
    assert max(sizes) == min(sizes) > 0  # a steady window holds a steady index


# ----------------------------------------------------------------------
# (e) Concurrent restores racing a backup
# ----------------------------------------------------------------------
def test_concurrent_restores_racing_a_backup_are_byte_identical(tmp_path):
    root = str(tmp_path / "repo")
    writer = open_repo(root)
    for index in range(4):
        backup(writer, index)
    writer.storage.close()
    repo = open_repo(root)  # a fresh engine: the restores race to build the index
    started, go = threading.Event(), threading.Event()
    results, errors = {}, []

    def blocks():
        data = version_bytes(4)
        yield data[:HALF]
        started.set()
        assert go.wait(30.0)
        yield data[HALF:]

    def backing_up():
        try:
            results["backup"] = repo.backup_blocks(
                blocks(), [("a.bin", HALF), ("b.bin", 96 * 1024 - HALF)]
            )["version_id"]
        except BaseException as exc:  # reported below, not lost in the thread
            errors.append(exc)

    versions = (1, 2, 3, 4, 1, 2)  # more restores than cores, two per old version
    barrier = threading.Barrier(len(versions))

    def restoring(slot, version):
        try:
            barrier.wait(10.0)
            results[slot] = restored(repo, version)
        except BaseException as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        writing = threading.Thread(target=backing_up)
        writing.start()
        assert started.wait(30.0)  # the backup is in flight: version 5 is taken
        readers = [
            threading.Thread(target=restoring, args=(slot, v))
            for slot, v in enumerate(versions)
        ]
        for thread in readers:
            thread.start()
        for thread in readers:
            thread.join(60.0)
        go.set()
        writing.join(60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not writing.is_alive() and not any(t.is_alive() for t in readers)
    assert errors == []
    assert results.pop("backup") == 5
    assert results == {slot: version_bytes(v - 1) for slot, v in enumerate(versions)}
    assert repo.metrics.snapshot()["counters"]["restore.index_builds"] == 1
    for version in (1, 4, 5):
        assert restored(repo, version) == version_bytes(version - 1)
    assert repo.verify(deep=True)["ok"]
