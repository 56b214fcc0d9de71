"""Mixed-tier repositories: hot metadata on one backend, cold containers
on another (``?archive=URL``), end to end through the CLI.

What §4.2 immutability buys operationally: sealed containers read
identically from any tier, so a repository can keep recipes, manifests
and the checkpoint on fast local storage while archival containers live
on SQLite or an object store — and restores, replication and repair all
cross the backend boundary transparently.
"""

import filecmp
import os
import random

import pytest

from repro.cli import main
from repro.repository import LocalRepository, materialize, read_tree
from repro.replication.repair import repair_from_mirror, scan_containers
from repro.replication.session import ReplicationSession
from repro.replication.targets import LocalMirror
from repro.storage.fake_s3 import FakeS3Server


@pytest.fixture(scope="module")
def s3_server():
    with FakeS3Server("127.0.0.1") as server:
        yield server


def make_tree(root, files=4, size=50_000, seed=0):
    rng = random.Random(seed)
    os.makedirs(root, exist_ok=True)
    for i in range(files):
        with open(os.path.join(root, f"f{i}.bin"), "wb") as handle:
            handle.write(rng.randbytes(size))
    return root


def assert_identical(a, b):
    names = sorted(os.listdir(a))
    match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    assert (sorted(match), mismatch, errors) == (names, [], [])


def backup_twice(repo_spec, tmp_path, seed=1):
    """Two different backups, so v1's chunks retire to the cold tier."""
    src1 = make_tree(str(tmp_path / "src1"), seed=seed)
    src2 = make_tree(str(tmp_path / "src2"), files=2, seed=seed + 100)
    repo = LocalRepository(repo_spec)
    v1 = repo.backup_tree(read_tree(src1))["version_id"]
    repo.backup_tree(read_tree(src2))
    return repo, v1, src1


@pytest.fixture(params=["sqlite", "s3"])
def mixed_spec(request, tmp_path, s3_server):
    hot = str(tmp_path / "hot")
    if request.param == "sqlite":
        return f"file://{hot}?archive=sqlite://{tmp_path}/cold.db"
    return f"file://{hot}?archive={s3_server.url('bucket', f'mixed-{request.node.name}')}"


class TestMixedTierRestore:
    def test_containers_live_on_cold_tier_only(self, mixed_spec, tmp_path):
        backup_twice(mixed_spec, tmp_path)
        hot = str(tmp_path / "hot")
        # Hot tier holds the mutable metadata…
        assert os.path.isdir(os.path.join(hot, "recipes"))
        assert os.path.exists(os.path.join(hot, "checkpoint.json"))
        # …but no sealed containers: those are on the archive backend.
        containers_dir = os.path.join(hot, "containers")
        assert not os.path.isdir(containers_dir) or not os.listdir(containers_dir)


class TestS3RangedRestore:
    def test_restore_uses_parallel_ranged_gets(self, tmp_path, s3_server):
        spec = s3_server.url("bucket", "ranged-restore")
        repo, v1, src1 = backup_twice(spec, tmp_path)
        s3_server.clear_log()
        s3_server.latency = 0.01
        try:
            plan, data = repo.restore(v1, verify=True, workers=4)
            out = str(tmp_path / "out")
            materialize(plan, data, out)
        finally:
            s3_server.latency = 0.0
        assert_identical(src1, out)
        # The prefetching pool fetched container slots with ranged GETs.
        assert len(s3_server.ranged_get_records()) > 0


class TestReplicationAcrossBackends:
    def test_file_to_sqlite_and_back(self, tmp_path):
        repo_root = str(tmp_path / "repo")
        _repo, v1, src1 = backup_twice(repo_root, tmp_path)
        mirror_url = f"sqlite://{tmp_path}/mirror.db"
        report = ReplicationSession(repo_root, LocalMirror(mirror_url)).run()
        assert report.committed
        assert report.containers_shipped >= 1

        # Second hop: URL source back onto a plain directory.
        hop = str(tmp_path / "hop")
        report2 = ReplicationSession(mirror_url, LocalMirror(hop)).run()
        assert report2.committed
        plan, data = LocalRepository(hop).restore(v1, verify=True)
        out = str(tmp_path / "out")
        materialize(plan, data, out)
        assert_identical(src1, out)

    def test_resync_ships_nothing(self, tmp_path):
        repo_root = str(tmp_path / "repo")
        backup_twice(repo_root, tmp_path)
        mirror_url = f"sqlite://{tmp_path}/mirror.db"
        ReplicationSession(repo_root, LocalMirror(mirror_url)).run()
        again = ReplicationSession(repo_root, LocalMirror(mirror_url)).run()
        assert again.objects_shipped == 0
        assert again.containers_skipped >= 1

    def test_mixed_tier_source_replicates(self, tmp_path, s3_server):
        spec = (
            f"file://{tmp_path}/hot"
            f"?archive={s3_server.url('bucket', 'repl-mixed')}"
        )
        _repo, v1, src1 = backup_twice(spec, tmp_path)
        mirror = str(tmp_path / "mirror")
        report = ReplicationSession(spec, LocalMirror(mirror)).run()
        assert report.committed
        plan, data = LocalRepository(mirror).restore(v1, verify=True)
        out = str(tmp_path / "out")
        materialize(plan, data, out)
        assert_identical(src1, out)


class TestRepairAcrossBackends:
    def test_repair_file_repo_from_sqlite_mirror(self, tmp_path):
        repo_root = str(tmp_path / "repo")
        repo, v1, src1 = backup_twice(repo_root, tmp_path)
        mirror_url = f"sqlite://{tmp_path}/mirror.db"
        ReplicationSession(repo_root, LocalMirror(mirror_url)).run()

        containers_dir = os.path.join(repo_root, "containers")
        victim = sorted(os.listdir(containers_dir))[0]
        with open(os.path.join(containers_dir, victim), "r+b") as handle:
            handle.seek(64)
            handle.write(b"\xff" * 64)
        _scanned, damaged = scan_containers(repo_root, deep=True)
        assert victim in damaged

        report = repair_from_mirror(repo_root, LocalMirror(mirror_url), deep=True)
        assert report.ok
        assert victim in report.repaired
        repo.invalidate()
        plan, data = repo.restore(v1, verify=True)
        out = str(tmp_path / "out")
        materialize(plan, data, out)
        assert_identical(src1, out)

    def test_repair_sqlite_repo_from_file_mirror(self, tmp_path):
        repo_url = f"sqlite://{tmp_path}/repo.db"
        repo, v1, src1 = backup_twice(repo_url, tmp_path)
        mirror = str(tmp_path / "mirror")
        ReplicationSession(repo_url, LocalMirror(mirror)).run()

        # Corrupt one container object inside the SQLite backend.
        import sqlite3

        conn = sqlite3.connect(str(tmp_path / "repo.db"))
        with conn:
            name, blob = conn.execute(
                "SELECT name, data FROM objects WHERE name LIKE 'containers/%' "
                "ORDER BY name LIMIT 1"
            ).fetchone()
            bad = bytes(blob[:64]) + b"\xff" * 64 + bytes(blob[128:])
            conn.execute("UPDATE objects SET data = ? WHERE name = ?", (bad, name))
        conn.close()

        _scanned, damaged = scan_containers(repo_url, deep=True)
        assert damaged
        report = repair_from_mirror(repo_url, LocalMirror(mirror), deep=True)
        assert report.ok
        repo.invalidate()
        plan, data = repo.restore(v1, verify=True)
        out = str(tmp_path / "out")
        materialize(plan, data, out)
        assert_identical(src1, out)


class TestCLIBackendURLs:
    def test_backup_restore_verify_via_cli(self, tmp_path, s3_server):
        src = make_tree(str(tmp_path / "src"), seed=5)
        spec = (
            f"file://{tmp_path}/hot"
            f"?archive={s3_server.url('bucket', 'cli-mixed')}"
        )
        assert main(["backup", spec, src]) == 0
        out = str(tmp_path / "out")
        assert main(["restore", spec, "1", out, "--verify", "--workers", "2"]) == 0
        assert_identical(src, out)
        assert main(["verify", spec, "--deep"]) == 0

    def test_cli_replicate_and_repair_across_backends(self, tmp_path):
        src = make_tree(str(tmp_path / "src"), seed=6)
        repo = str(tmp_path / "repo")
        assert main(["backup", repo, src]) == 0
        mirror = f"sqlite://{tmp_path}/mirror.db"
        assert main(["replicate", repo, mirror]) == 0
        assert main(["repair", repo, "--from", mirror]) == 0

    def test_bare_path_equals_file_url(self, tmp_path):
        src = make_tree(str(tmp_path / "src"), seed=7)
        bare = str(tmp_path / "bare")
        url = f"file://{tmp_path}/url"
        assert main(["backup", bare, src]) == 0
        assert main(["backup", url, src]) == 0
        bare_files = {
            os.path.relpath(os.path.join(d, f), bare)
            for d, _, fs in os.walk(bare) for f in fs
        }
        url_root = str(tmp_path / "url")
        url_files = {
            os.path.relpath(os.path.join(d, f), url_root)
            for d, _, fs in os.walk(url_root) for f in fs
        }
        assert bare_files == url_files

    def test_help_mentions_backend_urls(self, capsys):
        with pytest.raises(SystemExit):
            main(["backup", "--help"])
        assert "backend URL" in capsys.readouterr().out

    def test_serve_help_carries_deprecation_note(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--help"])
        out = capsys.readouterr().out
        assert "deprecated" in out
        assert "URL" in out
