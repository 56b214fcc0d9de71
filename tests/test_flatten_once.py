"""What is left of "Algorithm 1 runs once per chain change".

It runs on no restore at all: restores resolve chained rows from the
chain's demotion maps and in-memory index (``tests/test_restore_resolution.py``
holds the oracle, the zero-write check, the rebuild net, the bound and the
race), and Algorithm 1 itself writes nothing.  What this file keeps are the
scenarios around it:

* a head still naming the dropped ``flatten_every`` knob loads;
* a mirror tenant reads without writing, before and after a sync;
* a recipe swapped for its flattened bytes, and back, still restores;
* a chunk that is nowhere raises after exactly one index rebuild;
* what ``stats --metrics`` says about who paid for the index.
"""

import random

import pytest

from repro.core.hidestore import HiDeStore
from repro.errors import RestoreError
from repro.observability import MetricsRegistry
from repro.replication.session import ReplicationSession
from repro.replication.targets import LocalMirror
from repro.repository import LocalRepository
from repro.storage.recipe import pack_recipe, unpack_recipe
from repro.storage.repo import RepoStorage
from repro.units import KiB
from tests.conftest import make_stream, repo_state


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


def spec_of(kind, tmp_path, name):
    return str(tmp_path / name) if kind == "directory" else f"sqlite://{tmp_path}/{name}.db"


def stream(version):
    """Version ``version`` (1-based) of a sliding 40-token window."""
    return make_stream(list(range(version * 10, version * 10 + 40)))


def build(spec, versions=4):
    repo = open_repo(spec)
    for index in range(versions):
        backup(repo, index)
    return repo


def index_builds(repo):
    return repo.metrics.snapshot()["counters"].get("restore.index_builds", 0)


# ----------------------------------------------------------------------
# Algorithm 1 offline
# ----------------------------------------------------------------------
def test_a_head_that_still_says_flatten_every_loads_and_the_next_drops_it(tmp_path):
    from repro.core.checkpoint import checkpoint_document, system_from_document
    from repro.storage.backend import FileBackend

    system = HiDeStore(container_size=8 * KiB)
    for version in range(1, 4):
        system.backup(stream(version))
    saved = checkpoint_document(system)
    saved.write(FileBackend(str(tmp_path)), "ckpt.json")  # active containers go to the store
    assert "flatten_every" not in saved.head
    loaded = system_from_document(
        dict(saved.head, flatten_every=2),  # what a PR 22 repository holds
        container_store=system.containers,
        recipe_store=system.recipes,
        read_part=saved.new_parts.__getitem__,
    )
    loaded.backup(stream(4))  # the dropped knob would have flattened here
    assert loaded.chain.stats.flatten_runs == 0
    assert "flatten_every" not in checkpoint_document(loaded).head


# ----------------------------------------------------------------------
# Readers write nothing
# ----------------------------------------------------------------------
def test_mirror_tenant_after_a_sync_restores_without_writing(tmp_path):
    source_root, mirror_root = str(tmp_path / "source"), str(tmp_path / "mirror")
    source = build(source_root)
    assert restored(source, 1) == version_bytes(0)
    session = ReplicationSession(source_root, LocalMirror(mirror_root), journal="")
    assert session.run().committed
    shipped = repo_state(mirror_root)
    for version, reads in ((4, 1), (1, 1 + 4), (2, 1 + 4)):
        mirror = open_repo(mirror_root)
        engine = mirror._open()
        before = engine.io.snapshot()
        assert restored(mirror, version) == version_bytes(version - 1)
        delta = engine.io.delta(before)
        # The newest reads its own recipe; an older one also builds the index.
        assert (delta.recipe_reads, delta.recipe_writes) == (reads, 0)
        mirror.storage.close()
    assert repo_state(mirror_root) == shipped

    # A sync lands new recipes behind a cached engine; it is invalidated.
    mirror = open_repo(mirror_root)
    assert restored(mirror, 2) == version_bytes(1)
    backup(source, 4)
    assert session.run().committed
    mirror.invalidate()
    for version in (5, 4, 1):
        assert restored(mirror, version) == version_bytes(version - 1)
    assert index_builds(mirror) == 2  # one per engine load
    assert repo_state(mirror_root) == repo_state(source_root)
    assert mirror.verify(deep=True)["ok"]


# ----------------------------------------------------------------------
# Recipes behind the engine
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
    fresh = repo.storage.read_object("recipe", name)
    assert all(e.cid == 0 for e in unpack_recipe(fresh).entries)
    assert restored(repo, 1) == version_bytes(0)
    assert repo.storage.read_object("recipe", name) == fresh  # a restore writes nothing

    # R_1 as Algorithm 1 resolves it, landed behind the live engine (what a
    # repository flattened by an older version holds), then undone.
    flat = repo._open().chain.flatten()[1]
    assert any(e.cid > 0 for e in flat.entries) and any(e.cid == -5 for e in flat.entries)
    swap_recipe(spec, name, pack_recipe(flat))
    assert restored(repo, 1) == version_bytes(0)
    swap_recipe(spec, name, fresh)
    for file, want in ((None, version_bytes(0)), ("b.bin", version_bytes(0)[48 * 1024 :])):
        assert restored(repo, 1, file=file) == want
    assert index_builds(repo) == 1

    # Behind a fresh engine: the same, off the recipes as they now are.
    repo.invalidate()
    assert restored(repo, 1, file="a.bin") == version_bytes(0)[: 48 * 1024]
    assert repo.storage.read_object("recipe", name) == fresh
    assert index_builds(repo) == 2
    assert repo.verify(deep=True)["ok"]
    repo.storage.close()


def test_a_chunk_that_is_nowhere_still_raises_after_one_retry():
    system = HiDeStore(container_size=8 * KiB)
    for version in range(1, 4):
        system.backup(stream(version))
    system.restore(1)
    builds = system.chain.stats.index_builds
    del system.pool.location[system.recipes.peek(3).entries[0].fingerprint]
    with pytest.raises(RestoreError, match="neither archival in a newer recipe"):
        system.restore(3)
    assert system.chain.stats.index_builds == builds + 1  # it did try


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------
def test_stats_and_counters_say_whether_a_restore_paid_for_algorithm_1(tmp_path):
    repo = build(str(tmp_path / "repo"), versions=3)
    assert "flat_through" not in repo.stats()
    restored(repo, 1)  # the first older version builds the index ...
    restored(repo, 3)
    restored(repo, 2, file="a.bin")  # ... and nothing pays for it again
    assert index_builds(repo) == 1

    fresh = open_repo(repo.root)
    restored(fresh, 3)  # the newest needs no index
    assert index_builds(fresh) == 0
    restored(fresh, 2)
    assert index_builds(fresh) == 1
