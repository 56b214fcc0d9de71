"""File plans and file-level restore over ``LocalRepository``.

A backup's file plan becomes its version's manifest, so a plan that does
not describe the streamed bytes exactly — sizes that overrun or underrun
the stream, a negative size, a repeated name — must be refused with a
typed error and leave the repository as it was, locally and through the
daemon.  A consistent plan restores whole or file by file, for any
version.
"""

import os

import pytest

from repro.client import RemoteRepository
from repro.errors import ReproError
from repro.observability import MetricsRegistry
from repro.repository import LocalRepository
from repro.server import DaemonThread
from repro.units import KiB
from repro.workloads import FileTreeGenerator, FileTreeSpec

#: name -> (plan, length of the byte stream it claims to describe).
INCONSISTENT = {
    "overrun": ([("a", 100)], 50),
    "underrun": ([("c", 50)], 100),
    "negative size": ([("a", -5), ("b", 105)], 100),
    "duplicate name": ([("a", 10), ("a", 10)], 20),
}


def stored_objects(root):
    """Every file under a repository root, relative name -> bytes."""
    objects = {}
    for base, _dirs, files in os.walk(root):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as handle:
                objects[os.path.relpath(path, root)] = handle.read()
    return objects


def backup_tree(repo, tree, tag=""):
    names = sorted(tree)
    return repo.backup_blocks(
        [tree[name] for name in names], [(name, len(tree[name])) for name in names], tag
    )


def restored(repo, version_id, **kwargs):
    plan, data = repo.restore(version_id, **kwargs)
    return plan, b"".join(data)


FIRST = {"one.bin": os.urandom(20 * KiB), "two.bin": os.urandom(3 * KiB)}


@pytest.mark.parametrize("case", sorted(INCONSISTENT))
def test_local_backup_refuses_an_inconsistent_plan(tmp_path, case):
    root = str(tmp_path / "repo")
    repo = LocalRepository(root, metrics=MetricsRegistry())
    backup_tree(repo, FIRST, tag="good")
    before, versions = stored_objects(root), repo.versions()

    plan, length = INCONSISTENT[case]
    with pytest.raises(ReproError):
        repo.backup_blocks([os.urandom(length)], plan, tag=case)

    assert stored_objects(root) == before
    assert repo.versions() == versions
    fresh = LocalRepository(root, metrics=MetricsRegistry())
    assert fresh.versions() == versions
    assert restored(fresh, 1)[1] == FIRST["one.bin"] + FIRST["two.bin"]
    # The refused attempt leaves the repository ready for the next backup.
    assert backup_tree(fresh, FIRST)["version_id"] == 2


def test_remote_backup_refuses_inconsistent_plans(tmp_path):
    served = str(tmp_path / "served")
    thread = DaemonThread(served)
    address = thread.start()
    try:
        with RemoteRepository(address, "alpha") as repo:
            backup_tree(repo, FIRST, tag="good")
            tenant = os.path.join(served, "alpha")
            before, versions = stored_objects(tenant), repo.versions()
            for case, (plan, length) in sorted(INCONSISTENT.items()):
                with pytest.raises(ReproError):
                    repo.backup_blocks([os.urandom(length)], plan, tag=case)
                assert stored_objects(tenant) == before, case
                assert repo.versions() == versions, case
            assert restored(repo, 1)[1] == FIRST["one.bin"] + FIRST["two.bin"]
            assert backup_tree(repo, FIRST)["version_id"] == 2
    finally:
        thread.stop(drain_timeout=5)


def test_partial_restore_of_an_older_version(tmp_path):
    generator = FileTreeGenerator(
        FileTreeSpec(files=6, mean_file_size=24 * KiB, versions=3, seed=11)
    )
    trees = list(generator.versions())
    repo = LocalRepository(str(tmp_path / "repo"), metrics=MetricsRegistry())
    for k, tree in enumerate(trees, start=1):
        backup_tree(repo, tree, tag=f"gen-{k}")
    oldest = trees[0]
    assert any(oldest[name] != trees[-1].get(name) for name in oldest)
    for name in sorted(oldest):
        assert restored(repo, 1, file=name) == ([(name, len(oldest[name]))], oldest[name])
