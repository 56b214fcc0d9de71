"""Verification over stored repositories: one load per container.

The repository half of the oracle-equivalence matrix (``file://``,
``sqlite://`` and fake-S3 repositories, plus a traditional
``BackupSystem`` on file stores), the load-count contract of the
container-major pass, the "one bad container does not hide the next"
fix, and the ``verify.*`` metrics.
"""

import os
import random

import pytest

from repro.index import ExactFullIndex
from repro.observability import MetricsRegistry
from repro.pipeline.system import BackupSystem
from repro.replication.repair import scan_containers, verify_repository
from repro.repository import LocalRepository, open_repository
from repro.storage import FileContainerStore, FileRecipeStore
from repro.storage.backend import clear_backend_wrapper, install_backend_wrapper
from repro.storage.fake_s3 import FakeS3Server
from repro.units import KiB
from tests.conftest import random_payload_stream
from tests.verify_oracle import (
    CORRUPTIONS,
    IN_MEMORY_ONLY,
    NotApplicable,
    assert_matches_oracle,
    clean,
    missing_container,
    recipe_size_mismatch,
    truncated_plus_missing,
)

VERSIONS = 5
VERSION_BYTES = 160_000


@pytest.fixture(scope="module")
def s3_server():
    with FakeS3Server("127.0.0.1") as server:
        yield server


def build_repository(spec, metrics=None, version_bytes=VERSION_BYTES):
    """All-new bytes each version: every backup seals the last one's chunks."""
    repo = LocalRepository(spec, metrics=metrics)
    rng = random.Random(17)
    for index in range(VERSIONS):
        repo.backup_blocks(
            [rng.randbytes(version_bytes)], [("data.bin", version_bytes)], tag=f"v{index}"
        )
    repo.delete_oldest()
    return repo


@pytest.fixture(params=["directory", "file", "sqlite"])
def repo_spec(request, tmp_path):
    if request.param == "directory":
        return str(tmp_path / "repo")
    if request.param == "file":
        return f"file://{tmp_path}/repo"
    return f"sqlite://{tmp_path}/repo.db"


def check_repository(spec, damage, deep):
    system = open_repository(spec)
    damage(system)
    got = assert_matches_oracle(system, damage, deep)
    if damage not in IN_MEMORY_ONLY:
        # The same findings from the stored state alone.
        assert verify_repository(spec, deep=deep).issues == got.issues


class TestRepositoriesMatchOracle:
    @pytest.mark.parametrize("deep", [False, True], ids=["shallow", "deep"])
    @pytest.mark.parametrize("damage", CORRUPTIONS, ids=lambda damage: damage.__name__)
    def test_hidestore_repository(self, repo_spec, damage, deep):
        build_repository(repo_spec)
        check_repository(repo_spec, damage, deep)

    def test_object_store_repository(self, s3_server):
        # Every request to the fake object store costs tens of
        # milliseconds and the oracle makes two per recipe entry, so this
        # backend gets one small repository and its damage all at once.
        spec = s3_server.url("bucket", "verify-matrix")
        build_repository(spec, version_bytes=40_000)
        check_repository(spec, clean, deep=True)
        system = open_repository(spec)
        truncated_plus_missing(system)
        for deep in (False, True):
            got = assert_matches_oracle(system, truncated_plus_missing, deep)
            assert verify_repository(spec, deep=deep).issues == got.issues

    @pytest.mark.parametrize("deep", [False, True], ids=["shallow", "deep"])
    @pytest.mark.parametrize("damage", CORRUPTIONS, ids=lambda damage: damage.__name__)
    def test_traditional_system_on_file_stores(self, tmp_path, damage, deep):
        system = BackupSystem(
            ExactFullIndex(),
            container_store=FileContainerStore(str(tmp_path / "c")),
            recipe_store=FileRecipeStore(str(tmp_path / "r")),
            container_size=32 * KiB,
        )
        for seed in range(3):
            system.backup(random_payload_stream(seed, chunks=40))
        try:
            damage(system)
        except NotApplicable as why:
            pytest.skip(str(why))
        assert_matches_oracle(system, damage, deep)


class TestOneBadContainerDoesNotHideTheNext:
    @pytest.mark.parametrize("deep", [False, True], ids=["shallow", "deep"])
    def test_truncated_plus_missing_reports_both(self, tmp_path, deep):
        root = str(tmp_path / "repo")
        repo = build_repository(root)
        truncated_plus_missing(open_repository(root))
        names = sorted(os.listdir(os.path.join(root, "containers")))
        report = repo.verify(deep=deep)
        assert not report["ok"]
        assert report["versions_checked"] == VERSIONS - 1
        assert report["entries_checked"] > 0
        issues = report["issues"]
        assert not any("aborted" in issue for issue in issues)
        assert any(f"container file {names[0]}: unreadable" in issue for issue in issues)
        assert any("container file" in issue and issue.endswith(": missing") for issue in issues)
        # Each defect is also recorded against the entries that reference it.
        assert any("]: unreadable archival container" in issue for issue in issues)
        assert any("]: missing archival container" in issue for issue in issues)
        # ...and repair's scan, the same pass, sees the same two containers.
        _scanned, damaged = scan_containers(root, deep=deep)
        assert len(damaged) == 2 and damaged[names[0]].startswith("unreadable")


class CountingBackend:
    """Backend proxy that counts ``get`` and ``exists`` per object name."""

    def __init__(self, backend, gets, exists):
        self._backend = backend
        self._gets = gets
        self._exists = exists

    def __getattr__(self, name):
        return getattr(self._backend, name)

    def get(self, name):
        self._gets[name] = self._gets.get(name, 0) + 1
        return self._backend.get(name)

    def exists(self, name):
        self._exists.append(name)
        return self._backend.exists(name)


class TestLoadCounts:
    @pytest.mark.parametrize("damage", [None, recipe_size_mismatch, missing_container],
                             ids=["clean", "size_mismatch", "missing"])
    @pytest.mark.parametrize("deep", [False, True], ids=["shallow", "deep"])
    @pytest.mark.parametrize("kind", ["directory", "sqlite"])
    def test_each_container_fetched_at_most_once(self, tmp_path, kind, deep, damage):
        spec = str(tmp_path / "repo") if kind == "directory" else f"sqlite://{tmp_path}/r.db"
        repo = build_repository(spec)
        system = open_repository(spec)
        if damage is not None:
            damage(system)
        stored = len(system.containers.container_ids())
        entries = sum(len(system.recipes.peek(v).entries) for v in system.recipes.version_ids())
        assert stored >= 2 and entries > stored

        gets, exists = {}, []
        install_backend_wrapper(lambda backend: CountingBackend(backend, gets, exists))
        try:
            report = repo.verify(deep=deep)
        finally:
            clear_backend_wrapper()
        assert report["ok"] == (damage is None)
        assert report["containers_checked"] == stored
        fetched = {name: count for name, count in gets.items() if "container-" in name}
        # The open fetches each active container object once, to check it
        # against the head; the pass fetches each archival one once.
        assert len(fetched) == stored + len(system.pool.persisted), fetched
        assert set(fetched.values()) == {1}, fetched
        # Presence comes from one listing, not from a stat per reference.
        assert not [name for name in exists if "container-" in name]


class TestVerifyMetrics:
    def test_verify_records_its_work(self, tmp_path):
        metrics = MetricsRegistry()
        repo = build_repository(str(tmp_path / "repo"), metrics=metrics)
        report = repo.verify(deep=True)
        assert report["ok"] and report["seconds"] > 0
        snapshot = metrics.snapshot()
        counters = snapshot["counters"]
        assert counters["verify.containers_checked"] == report["containers_checked"] >= 2
        assert counters["verify.entries_checked"] == report["entries_checked"]
        assert counters["verify.bytes_rehashed"] >= VERSION_BYTES
        assert counters.get("verify.issues", 0) == 0
        assert snapshot["histograms"]["verify.seconds"]["count"] == 1

        rehashed = counters["verify.bytes_rehashed"]
        recipe_size_mismatch(open_repository(str(tmp_path / "repo")))
        shallow = repo.verify(deep=False)
        counters = metrics.snapshot()["counters"]
        assert counters["verify.issues"] == shallow["issues_total"] == 1
        assert counters["verify.bytes_rehashed"] == rehashed  # shallow hashes nothing
