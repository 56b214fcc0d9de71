"""Algorithm 1 runs once per chain change, not once per restore.

Five groups, in the order ``HiDeStore._restore_rows`` argues them:

* (a) the mark — which operations set it, clear it and leave it alone, and
  that N restores after one backup cost exactly one flatten;
* (b) parity — every recipe object is byte-identical to a twin repository
  that flattens explicitly before each restore (the parent's behaviour);
* (c) a fresh engine reads only the recipe it restores and writes nothing
  when that recipe is already flat, a mirror tenant included;
* (d) a recipe replaced behind the engine still restores byte-identical;
* (e) two concurrent restores right after a backup flatten once;

then what ``stats --metrics`` can say about it.
"""

import random
import threading

import pytest

from repro.core.hidestore import HiDeStore
from repro.core.recipe_chain import NOT_FLAT
from repro.observability import MetricsRegistry
from repro.replication.session import ReplicationSession
from repro.replication.state import capture_state
from repro.replication.targets import LocalMirror
from repro.repository import LocalRepository
from repro.storage.recipe import unpack_recipe
from repro.storage.repo import RepoStorage
from repro.units import KiB
from tests.conftest import make_stream


def version_bytes(index):
    """Version ``index`` (0-based) of an evolving 96 KiB file: each version
    overwrites one more window, so older versions' chunks go cold."""
    data = bytearray(random.Random(31).randbytes(96 * 1024))
    for k in range(1, index + 1):
        offset = (k * 20 * 1024) % (80 * 1024)
        data[offset : offset + 12 * 1024] = random.Random(300 + k).randbytes(12 * 1024)
    return bytes(data)


def backup(repo, index):
    data = version_bytes(index)
    half = len(data) // 2
    plan = [("a.bin", half), ("b.bin", len(data) - half)]
    return repo.backup_blocks([data], plan, tag=f"v{index + 1}")


def restored(repo, version_id, **kwargs):
    return b"".join(repo.restore(version_id, **kwargs)[1])


def open_repo(spec):
    return LocalRepository(spec, metrics=MetricsRegistry())


def recipes_of(spec):
    return capture_state(spec)["recipes"]


def spec_of(kind, tmp_path, name):
    return str(tmp_path / name) if kind == "directory" else f"sqlite://{tmp_path}/{name}.db"


def stream(version):
    """Version ``version`` (1-based) of a sliding 40-token window."""
    return make_stream(list(range(version * 10, version * 10 + 40)))


# ----------------------------------------------------------------------
# (a) The mark
# ----------------------------------------------------------------------
def test_many_restores_after_one_backup_flatten_once():
    system = HiDeStore(container_size=8 * KiB)
    for version in range(1, 7):
        system.backup(stream(version))
    assert system.chain.flat_through == NOT_FLAT
    before = system.chain.stats.flatten_runs
    reads = system.io.snapshot()
    for version in (6, 1, 3, 6, 2, 5, 1, 4, 6):
        assert system.restore(version).chunks == 40
    assert system.chain.stats.flatten_runs == before + 1
    assert system.chain.flat_through == 6
    # One flatten walks the six recipes; after it a restore reads only its own.
    assert system.io.delta(reads).recipe_reads == 6 + 9


def test_a_backup_clears_the_mark_and_the_next_restore_sets_it():
    system = HiDeStore(container_size=8 * KiB)
    assert system.chain.flat_through is None
    for version in range(1, 4):
        system.backup(stream(version))
    system.restore(3)  # the newest needs no chain, but the live engine flattens now
    assert system.chain.flat_through == 3
    system.backup(stream(4))
    assert system.chain.flat_through == NOT_FLAT
    runs = system.chain.stats.flatten_runs
    system.restore(1)
    system.restore(4)
    assert system.chain.flat_through == 4
    assert system.chain.stats.flatten_runs == runs + 1


def test_draining_deferred_maintenance_clears_the_mark():
    system = HiDeStore(container_size=8 * KiB, deferred_maintenance=True)
    for version in range(1, 4):
        system.backup(stream(version))
    system.restore(2)
    assert system.chain.flat_through == 3 and system.pending_maintenance == 0
    system.backup(stream(4))
    assert system.pending_maintenance == 1
    system.chain.flatten()  # flat, but R_3's update is still queued
    assert system.chain.flat_through == 4
    runs = system.chain.stats.flatten_runs
    assert system.restore(3).chunks == 40  # drains the queue first: not flat any more
    assert system.chain.stats.flatten_runs == runs + 1
    assert system.chain.flat_through == 4


def test_a_head_that_still_says_flatten_every_loads_and_the_next_drops_it():
    from repro.core.checkpoint import checkpoint_document, system_from_document

    system = HiDeStore(container_size=8 * KiB)
    for version in range(1, 4):
        system.backup(stream(version))
    saved = checkpoint_document(system)
    assert "flatten_every" not in saved.head
    loaded = system_from_document(
        dict(saved.head, flatten_every=2),  # what a PR 22 repository holds
        container_store=system.containers,
        recipe_store=system.recipes,
        read_part=saved.new_parts.__getitem__,
    )
    loaded.backup(stream(4))  # the dropped knob would have flattened here
    assert loaded.chain.flat_through == NOT_FLAT
    assert "flatten_every" not in checkpoint_document(loaded).head


def test_delete_oldest_and_retire_leave_the_mark_set():
    system = HiDeStore(container_size=8 * KiB)
    for version in range(1, 6):
        system.backup(stream(version))
    system.restore(1)
    runs = system.chain.stats.flatten_runs
    system.delete_oldest()
    assert system.chain.flat_through == 5
    for version in (2, 5, 3):
        system.restore(version)
    assert system.chain.stats.flatten_runs == runs
    system.retire()
    assert system.chain.flat_through == 5
    for version in (2, 5):
        system.restore(version)
    assert system.chain.stats.flatten_runs == runs + 1  # retire's own


def test_a_partial_flatten_is_not_mistaken_for_a_whole_one():
    system = HiDeStore(container_size=8 * KiB)
    for version in range(1, 5):
        system.backup(stream(version))
    system.chain.flatten(newest=3)
    assert system.chain.flat_through == 3
    runs = system.chain.stats.flatten_runs
    system.restore(1)
    assert system.chain.stats.flatten_runs == runs + 1
    assert system.chain.flat_through == 4


# ----------------------------------------------------------------------
# (b) Parity with flattening before every restore
# ----------------------------------------------------------------------
#: ("backup", index) | ("restore", version, file or None) | ("delete",)
SEQUENCE = [
    ("backup", 0), ("backup", 1), ("backup", 2),
    ("restore", 1, None), ("restore", 3, None), ("restore", 2, "b.bin"),
    ("backup", 3),
    ("restore", 4, None), ("restore", 1, "a.bin"),
    ("delete",),
    ("restore", 2, None), ("restore", 4, "b.bin"),
    ("backup", 4), ("backup", 5),
    ("delete",),
    ("restore", 3, None), ("restore", 6, None), ("restore", 5, "a.bin"),
]


@pytest.mark.parametrize("kind", ["directory", "sqlite"])
def test_recipes_are_byte_identical_to_flattening_before_every_restore(tmp_path, kind):
    ours, twin = (open_repo(spec_of(kind, tmp_path, name)) for name in ("ours", "twin"))
    for step in SEQUENCE:
        if step[0] == "backup":
            assert backup(ours, step[1]) == backup(twin, step[1])
        elif step[0] == "delete":
            assert ours.delete_oldest()["version_id"] == twin.delete_oldest()["version_id"]
        else:
            _, version, file = step
            twin._open().chain.flatten()  # what every restore used to start with
            data = restored(ours, version, file=file)
            assert data == restored(twin, version, file=file)
            whole = version_bytes(version - 1)
            half = len(whole) // 2
            assert data == {None: whole, "a.bin": whole[:half], "b.bin": whole[half:]}[file]
            assert recipes_of(ours.root) == recipes_of(twin.root), step
    assert ours._open().chain.stats.flatten_runs == 3  # one per burst of backups
    assert capture_state(ours.root)["containers"] == capture_state(twin.root)["containers"]
    for repo in (ours, twin):
        repo.storage.close()


# ----------------------------------------------------------------------
# (c) A fresh engine on a flat chain reads one recipe and writes none
# ----------------------------------------------------------------------
def build(spec, versions=4):
    repo = open_repo(spec)
    for index in range(versions):
        backup(repo, index)
    return repo


def fresh_restore_io(spec, version_id, **kwargs):
    """Restore on an engine nothing else has touched; its recipe I/O."""
    repo = open_repo(spec)
    engine = repo._open()
    before = engine.io.snapshot()
    data = restored(repo, version_id, **kwargs)
    delta = engine.io.delta(before)
    repo.storage.close()
    return data, delta.recipe_reads, delta.recipe_writes, engine


@pytest.mark.parametrize("kind", ["directory", "sqlite"])
def test_fresh_engine_on_a_flat_chain_reads_one_recipe_and_writes_none(tmp_path, kind):
    spec = spec_of(kind, tmp_path, "repo")
    build(spec).storage.close()  # four backups, never restored: chained
    stored = recipes_of(spec)

    # The newest is never chained: nothing to flatten, nothing written.
    data, reads, writes, engine = fresh_restore_io(spec, 4)
    assert data == version_bytes(3) and (reads, writes) == (1, 0)
    assert engine.chain.stats.flatten_runs == 0 and engine.chain.flat_through is None
    assert recipes_of(spec) == stored

    # R_3 was written chained to R_4, the newest: already what Algorithm 1 leaves.
    data, reads, writes, engine = fresh_restore_io(spec, 3)
    assert data == version_bytes(2) and (reads, writes) == (1, 0)
    assert engine.chain.stats.flatten_runs == 0

    # R_1 is chained to R_2: one real flatten, then a re-read.
    data, reads, writes, engine = fresh_restore_io(spec, 1)
    assert data == version_bytes(0) and writes >= 1
    assert engine.chain.stats.flatten_runs == 1 and engine.chain.flat_through == 4
    flat = recipes_of(spec)
    assert flat != stored

    # Now every version is flat on disk: one read, no write, partial or whole.
    for version in (1, 2, 3, 4):
        data, reads, writes, engine = fresh_restore_io(spec, version)
        assert data == version_bytes(version - 1) and (reads, writes) == (1, 0)
        assert engine.chain.stats.flatten_runs == 0
    data, reads, writes, _ = fresh_restore_io(spec, 1, file="b.bin")
    assert data == version_bytes(0)[48 * 1024 :] and (reads, writes) == (1, 0)
    assert recipes_of(spec) == flat


def test_mirror_tenant_after_a_sync_restores_without_writing(tmp_path):
    source_root, mirror_root = str(tmp_path / "source"), str(tmp_path / "mirror")
    source = build(source_root)
    assert restored(source, 1) == version_bytes(0)  # the primary flattens
    session = ReplicationSession(source_root, LocalMirror(mirror_root), journal="")
    assert session.run().committed
    shipped = capture_state(mirror_root)
    for version in (4, 1, 2):
        data, reads, writes, engine = fresh_restore_io(mirror_root, version)
        assert data == version_bytes(version - 1) and (reads, writes) == (1, 0)
        assert engine.chain.stats.flatten_runs == 0
    assert capture_state(mirror_root) == shipped

    # A sync lands an un-flattened chain; a cached engine is invalidated.
    mirror = open_repo(mirror_root)
    assert restored(mirror, 2) == version_bytes(1)
    backup(source, 4)
    assert session.run().committed
    mirror.invalidate()
    assert mirror.stats()["flat_through"] is None
    for version in (5, 4, 1):
        assert restored(mirror, version) == version_bytes(version - 1)
    assert mirror.verify(deep=True)["ok"]


# ----------------------------------------------------------------------
# (d) A recipe replaced behind the engine
# ----------------------------------------------------------------------
def swap_recipe(spec, name, blob):
    storage = RepoStorage(spec)
    try:
        storage.write_object("recipe", name, blob)
    finally:
        storage.close()


@pytest.mark.parametrize("kind", ["directory", "sqlite"])
def test_a_recipe_swapped_for_its_pre_flatten_bytes_still_restores(tmp_path, kind):
    spec = spec_of(kind, tmp_path, "repo")
    repo = build(spec, versions=5)
    name = "recipe-00000001.hdsr"
    chained = repo.storage.read_object("recipe", name)
    assert any(e.cid < 0 and e.cid != -5 for e in unpack_recipe(chained).entries)

    assert restored(repo, 1) == version_bytes(0)
    engine = repo._open()
    flat = repo.storage.read_object("recipe", name)
    assert flat != chained and engine.chain.flat_through == 5

    # Behind a live engine whose mark says flat: the chunks that went cold
    # are not in the active containers, so the restore flattens and retries.
    swap_recipe(spec, name, chained)
    runs = engine.chain.stats.flatten_runs
    assert restored(repo, 1) == version_bytes(0)
    assert engine.chain.stats.flatten_runs == runs + 1
    assert repo.storage.read_object("recipe", name) == flat
    assert restored(repo, 1, file="b.bin") == version_bytes(0)[48 * 1024 :]
    assert engine.chain.stats.flatten_runs == runs + 1

    # Behind a fresh engine: the recipe says of itself that it is chained.
    swap_recipe(spec, name, chained)
    repo.invalidate()
    assert restored(repo, 1, file="a.bin") == version_bytes(0)[: 48 * 1024]
    assert repo._open().chain.stats.flatten_runs == 1
    assert repo.storage.read_object("recipe", name) == flat
    assert repo.verify(deep=True)["ok"]
    repo.storage.close()


def test_a_chunk_that_is_nowhere_still_raises_after_one_retry(tmp_path):
    from repro.errors import RestoreError

    system = HiDeStore(container_size=8 * KiB)
    for version in range(1, 4):
        system.backup(stream(version))
    system.restore(1)
    recipe = system.recipes.peek(3)
    lost = recipe.entries[0].fingerprint
    del system.pool.location[lost]
    runs = system.chain.stats.flatten_runs
    with pytest.raises(RestoreError, match="not there"):
        system.restore(3)
    assert system.chain.stats.flatten_runs == runs + 1  # it did try


# ----------------------------------------------------------------------
# (e) Concurrent restores
# ----------------------------------------------------------------------
def test_two_concurrent_restores_after_a_backup_flatten_once(tmp_path):
    repo = build(str(tmp_path / "repo"))
    engine = repo._open()
    assert engine.chain.stats.flatten_runs == 0
    barrier = threading.Barrier(2)
    results = {}

    def restore(version):
        barrier.wait(10.0)
        results[version] = restored(repo, version)

    threads = [threading.Thread(target=restore, args=(v,)) for v in (1, 4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60.0)
    assert results == {1: version_bytes(0), 4: version_bytes(3)}
    assert engine.chain.stats.flatten_runs == 1
    counters = repo.metrics.snapshot()["counters"]
    assert counters["restore.flatten_runs"] + counters.get("restore.flatten_skipped", 0) == 2


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------
def test_stats_and_counters_say_whether_a_restore_paid_for_algorithm_1(tmp_path):
    repo = build(str(tmp_path / "repo"), versions=3)
    assert repo.stats()["flat_through"] is None  # changed since, not flat
    restored(repo, 1)
    restored(repo, 3)
    restored(repo, 2, file="a.bin")
    assert repo.stats()["flat_through"] == 3
    counters = repo.metrics.snapshot()["counters"]
    assert counters["restore.flatten_runs"] == 1
    assert counters["restore.flatten_skipped"] == 2

    fresh = open_repo(repo.root)
    assert fresh.stats()["flat_through"] is None  # never told
    restored(fresh, 3)
    counters = fresh.metrics.snapshot()["counters"]
    assert counters["restore.flatten_skipped"] == 1
    assert "restore.flatten_runs" not in counters
