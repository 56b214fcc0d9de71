"""Replication & disaster-recovery subsystem tests.

Covers the planner's O(delta) diffing, the crash-safe sync session
(interrupt + resume without re-shipping, mirror never observable torn),
self-sync rejection, deletion propagation via §4.5 expiry tags, the
``REPLICATE_*`` wire path against a real daemon, verifiable repair from
local and remote mirrors, the registry lock semantics replication must
respect, and the CLI command surface.
"""

import asyncio
import glob
import json
import os
import threading

import pytest

from repro.client.protocol import FrameType
from repro.errors import ReplicationError, ReproError
from repro.observability import MetricsRegistry
from repro.replication import (
    LocalMirror,
    ObjectRef,
    RemoteMirror,
    ReplicationSession,
    SyncPlanner,
    capture_state,
    repair_from_mirror,
    scan_containers,
)
from repro.replication.repair import check_container_blob, verify_repository
from repro.replication.state import validate_object
from repro.repository import LocalRepository, materialize, read_tree
from repro.server import BackupDaemon, DaemonThread


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def _write_tree(base, files):
    os.makedirs(base, exist_ok=True)
    for rel, payload in files.items():
        path = os.path.join(base, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(payload)


def _blob(seed: int, size: int = 200_000) -> bytes:
    import random

    return random.Random(seed).randbytes(size)


def _build_repo(root, src, versions=3):
    """A repository with ``versions`` backups of a mutating tree.

    Returns (repository, {version_id: {rel: payload}}).
    """
    repo = LocalRepository(str(root))
    files = {"a/one.bin": _blob(1), "two.bin": _blob(2)}
    contents = {}
    for v in range(1, versions + 1):
        if v > 1:
            files = dict(files, **{f"delta{v}.bin": _blob(10 + v)})
            files["two.bin"] = files["two.bin"] + _blob(100 + v, 50_000)
        _write_tree(str(src), files)
        repo.backup_tree(read_tree(str(src)), tag=f"v{v}")
        contents[v] = dict(files)
    return repo, contents


def _restore_files(repo_root, version, out):
    repo = LocalRepository(str(repo_root))
    plan, data = repo.restore(version)
    materialize(plan, data, str(out))
    return {rel: open(path, "rb").read() for rel, path in read_tree(str(out))}


def _assert_mirror_serves(mirror_root, contents, tmp_path, label):
    for version, files in contents.items():
        out = tmp_path / f"out-{label}-{version}"
        restored = _restore_files(mirror_root, version, out)
        assert restored == files, (
            f"mirror restore of version {version} not byte-identical ({label})"
        )


class FlakyTarget:
    """A LocalMirror that dies after ``fail_after`` puts (crash injection)."""

    def __init__(self, root, fail_after):
        self.inner = LocalMirror(str(root))
        self.remaining = fail_after

    def state(self):
        return self.inner.state()

    def put(self, kind, name, blob, staged=False):
        if self.remaining <= 0:
            raise ConnectionError("mirror link died mid-sync")
        self.remaining -= 1
        self.inner.put(kind, name, blob, staged)

    def commit(self, renames, deletes):
        self.inner.commit(renames, deletes)

    def fetch(self, kind, name):
        return self.inner.fetch(kind, name)

    def identity(self):
        return self.inner.identity()

    def close(self):
        pass


# ----------------------------------------------------------------------
# Planner
# ----------------------------------------------------------------------
class TestSyncPlanner:
    def _state(self, containers={}, recipes={}, manifests={}, checkpoint={}):
        return {
            "containers": dict(containers),
            "recipes": dict(recipes),
            "manifests": dict(manifests),
            "checkpoint": dict(checkpoint),
        }

    def test_empty_to_empty(self):
        plan = SyncPlanner().plan(self._state(), self._state())
        assert plan.empty and not plan.needs_commit

    def test_full_seed_ships_everything_in_order(self):
        source = self._state(
            containers={"container-00000001.hdsc": {"size": 10}},
            recipes={"recipe-00000001.hdsr": {"size": 5, "digest": "aa"}},
            manifests={"manifest-00000001.txt": {"size": 3, "digest": "bb"}},
            checkpoint={"checkpoint.json": {"size": 7, "digest": "cc"}},
        )
        plan = SyncPlanner().plan(source, self._state())
        kinds = [a.kind for a in plan.ships]
        assert kinds == ["container", "manifest", "recipe", "checkpoint"]
        # Recipes and the checkpoint stage; containers/manifests go direct.
        assert [a.staged for a in plan.ships] == [False, False, True, True]
        # Commit flips recipes first, checkpoint last.
        assert [r.kind for r in plan.renames] == ["recipe", "checkpoint"]
        assert plan.containers_skipped == 0
        assert plan.bytes_to_ship == 25

    def test_incremental_skips_present_containers(self):
        source = self._state(
            containers={
                "container-00000001.hdsc": {"size": 10},
                "container-00000002.hdsc": {"size": 20},
            },
        )
        target = self._state(containers={"container-00000001.hdsc": {"size": 10}})
        plan = SyncPlanner().plan(source, target)
        assert [a.name for a in plan.ships] == ["container-00000002.hdsc"]
        assert plan.containers_skipped == 1

    def test_size_mismatch_reships_container(self):
        source = self._state(containers={"container-00000001.hdsc": {"size": 10}})
        target = self._state(containers={"container-00000001.hdsc": {"size": 9}})
        plan = SyncPlanner().plan(source, target)
        assert [a.name for a in plan.ships] == ["container-00000001.hdsc"]
        assert plan.containers_skipped == 0

    def test_digest_change_reships_recipe(self):
        source = self._state(recipes={"recipe-00000001.hdsr": {"size": 5, "digest": "new"}})
        target = self._state(recipes={"recipe-00000001.hdsr": {"size": 5, "digest": "old"}})
        plan = SyncPlanner().plan(source, target)
        assert [(a.kind, a.staged) for a in plan.ships] == [("recipe", True)]
        assert plan.renames == [ObjectRef("recipe", "recipe-00000001.hdsr")]

    def test_expired_objects_delete_in_safe_order(self):
        target = self._state(
            containers={"container-00000001.hdsc": {"size": 10}},
            recipes={"recipe-00000001.hdsr": {"size": 5, "digest": "aa"}},
            manifests={"manifest-00000001.txt": {"size": 3, "digest": "bb"}},
        )
        plan = SyncPlanner().plan(self._state(), target)
        assert [d.kind for d in plan.deletes] == ["recipe", "manifest", "container"]
        assert plan.needs_commit and not plan.ships

    def test_unchanged_state_plans_nothing(self):
        state = self._state(
            containers={"container-00000001.hdsc": {"size": 10}},
            recipes={"recipe-00000001.hdsr": {"size": 5, "digest": "aa"}},
            checkpoint={"checkpoint.json": {"size": 7, "digest": "cc"}},
        )
        plan = SyncPlanner().plan(state, state)
        assert plan.empty and plan.containers_skipped == 1


def test_validate_object_rejects_traversal_names():
    for kind, name in [
        ("container", "../evil.hdsc"),
        ("container", "container-1.hdsc"),
        ("recipe", "recipe-00000001.hdsr.staged"),
        ("checkpoint", "other.json"),
        ("nonsense", "container-00000001.hdsc"),
    ]:
        with pytest.raises(ReplicationError):
            validate_object(kind, name)


def test_replicate_frame_values_are_wire_stable():
    assert FrameType.REPLICATE_STATE == 18
    assert FrameType.REPLICATE_STATE_OK == 19
    assert FrameType.REPLICATE_PUT == 20
    assert FrameType.REPLICATE_PUT_OK == 21
    assert FrameType.REPLICATE_COMMIT == 22
    assert FrameType.REPLICATE_COMMIT_OK == 23
    assert FrameType.REPLICATE_FETCH == 24
    assert FrameType.REPLICATE_OBJECT == 25
    assert FrameType.VERIFY == 26
    assert FrameType.VERIFY_OK == 27


# ----------------------------------------------------------------------
# Local sync sessions
# ----------------------------------------------------------------------
class TestLocalSync:
    def test_full_then_incremental_is_o_delta(self, tmp_path):
        repo, contents = _build_repo(tmp_path / "repo", tmp_path / "src", versions=2)
        mirror_root = tmp_path / "mirror"
        metrics = MetricsRegistry()

        first = ReplicationSession(
            str(tmp_path / "repo"), LocalMirror(str(mirror_root)), metrics=metrics
        ).run()
        assert first.containers_shipped > 0 and first.committed
        shipped_before = first.containers_shipped
        _assert_mirror_serves(mirror_root, contents, tmp_path, "seed")

        # One more backup: the next sync must ship only the new delta.
        files = dict(contents[2], extra=_blob(77))
        _write_tree(str(tmp_path / "src"), files)
        repo.backup_tree(read_tree(str(tmp_path / "src")), tag="v3")
        contents[3] = files

        second = ReplicationSession(
            str(tmp_path / "repo"), LocalMirror(str(mirror_root)), metrics=metrics
        ).run()
        total = len(capture_state(str(tmp_path / "repo"))["containers"])
        assert second.containers_skipped == shipped_before
        assert second.containers_shipped == total - shipped_before
        counters = metrics.snapshot()["counters"]
        assert counters["replication.containers_skipped"] == shipped_before
        assert counters["replication.containers_shipped"] == total
        assert counters["replication.syncs_total"] == 2
        _assert_mirror_serves(mirror_root, contents, tmp_path, "incr")

    def test_steady_state_sync_ships_nothing(self, tmp_path):
        _build_repo(tmp_path / "repo", tmp_path / "src", versions=2)
        mirror = LocalMirror(str(tmp_path / "mirror"))
        ReplicationSession(str(tmp_path / "repo"), mirror, journal="").run()
        again = ReplicationSession(str(tmp_path / "repo"), mirror, journal="").run()
        assert again.objects_shipped == 0 and not again.committed

    def test_deletion_propagates_next_sync(self, tmp_path):
        repo, contents = _build_repo(tmp_path / "repo", tmp_path / "src", versions=3)
        mirror_root = tmp_path / "mirror"
        ReplicationSession(str(tmp_path / "repo"), LocalMirror(str(mirror_root))).run()

        repo.delete_oldest()
        report = ReplicationSession(
            str(tmp_path / "repo"), LocalMirror(str(mirror_root))
        ).run()
        assert report.objects_deleted > 0
        mirrored = LocalRepository(str(mirror_root)).versions()
        assert [row["version_id"] for row in mirrored] == [2, 3]
        del contents[1]
        _assert_mirror_serves(mirror_root, contents, tmp_path, "afterdel")

    def test_interrupted_sync_leaves_mirror_consistent_and_resumes(self, tmp_path):
        repo, contents = _build_repo(tmp_path / "repo", tmp_path / "src", versions=2)
        mirror_root = tmp_path / "mirror"
        ReplicationSession(str(tmp_path / "repo"), LocalMirror(str(mirror_root))).run()
        versions_before = [
            r["version_id"] for r in LocalRepository(str(mirror_root)).versions()
        ]

        files = dict(contents[2], extra=_blob(88, 400_000))
        _write_tree(str(tmp_path / "src"), files)
        repo.backup_tree(read_tree(str(tmp_path / "src")), tag="v3")
        contents[3] = files

        # Kill the link after one put: new containers partially shipped,
        # nothing committed.
        flaky = FlakyTarget(mirror_root, fail_after=1)
        with pytest.raises((ReproError, ConnectionError)):
            ReplicationSession(str(tmp_path / "repo"), flaky, journal="").run()

        # Torn-state check: the mirror still serves exactly its old
        # versions, byte-identically — the interrupted sync is invisible.
        mirror_repo = LocalRepository(str(mirror_root))
        mirror_repo.invalidate()
        assert [
            r["version_id"] for r in mirror_repo.versions()
        ] == versions_before
        _assert_mirror_serves(
            mirror_root, {v: contents[v] for v in versions_before}, tmp_path, "torn"
        )

        # Resume: the re-diff skips every container that already landed.
        metrics = MetricsRegistry()
        resumed = ReplicationSession(
            str(tmp_path / "repo"), LocalMirror(str(mirror_root)), metrics=metrics
        ).run()
        total = len(capture_state(str(tmp_path / "repo"))["containers"])
        assert resumed.containers_shipped + resumed.containers_skipped == total
        assert resumed.containers_skipped > 0, "resume re-shipped completed containers"
        assert resumed.committed
        _assert_mirror_serves(mirror_root, contents, tmp_path, "resumed")

    def test_self_sync_rejected(self, tmp_path):
        _build_repo(tmp_path / "repo", tmp_path / "src", versions=1)
        session = ReplicationSession(
            str(tmp_path / "repo"), LocalMirror(str(tmp_path / "repo"))
        )
        with pytest.raises(ReplicationError, match="self-sync"):
            session.run()
        # Symlinked paths resolve to the same directory too.
        link = tmp_path / "repo-link"
        os.symlink(tmp_path / "repo", link)
        with pytest.raises(ReplicationError, match="self-sync"):
            ReplicationSession(str(tmp_path / "repo"), LocalMirror(str(link))).run()

    def test_journal_records_the_run(self, tmp_path):
        import json

        _build_repo(tmp_path / "repo", tmp_path / "src", versions=1)
        session = ReplicationSession(
            str(tmp_path / "repo"), LocalMirror(str(tmp_path / "mirror"))
        )
        session.run()
        assert session.journal_path and os.path.exists(session.journal_path)
        with open(session.journal_path, encoding="utf-8") as handle:
            events = [json.loads(line) for line in handle]
        assert events[0]["event"] == "sync_begin"
        assert events[-1]["event"] == "sync_end"
        assert any(e["event"] == "ship" for e in events)
        assert any(e["event"] == "commit" for e in events)

    def test_source_mutation_mid_sync_detected(self, tmp_path):
        _build_repo(tmp_path / "repo", tmp_path / "src", versions=1)

        class MutatingTarget(LocalMirror):
            """Rewrites the source checkpoint between diff and ship."""

            def __init__(self, root, source_root):
                super().__init__(root)
                self.source_root = source_root

            def state(self):
                state = super().state()
                checkpoint = os.path.join(self.source_root, "checkpoint.json")
                with open(checkpoint, "r+", encoding="utf-8") as handle:
                    doc = handle.read()
                    handle.seek(0)
                    handle.write(doc + " ")
                return state

        target = MutatingTarget(str(tmp_path / "mirror"), str(tmp_path / "repo"))
        with pytest.raises(ReplicationError, match="changed while syncing"):
            ReplicationSession(str(tmp_path / "repo"), target, journal="").run()


# ----------------------------------------------------------------------
# Remote sync over the wire
# ----------------------------------------------------------------------
class TestRemoteSync:
    def test_failover_restore_from_mirror_daemon(self, tmp_path):
        _, contents = _build_repo(tmp_path / "repo", tmp_path / "src", versions=3)
        served = tmp_path / "served"
        with DaemonThread(str(served)) as address:
            mirror = RemoteMirror(address, "mirror")
            try:
                report = ReplicationSession(str(tmp_path / "repo"), mirror).run()
                assert report.committed and report.containers_shipped > 0
                again = ReplicationSession(str(tmp_path / "repo"), mirror).run()
                assert again.objects_shipped == 0
                assert again.containers_skipped == report.containers_shipped
            finally:
                mirror.close()
            # Failover restore over the wire: every version byte-identical.
            from repro.client import RemoteRepository

            with RemoteRepository(address, "mirror") as remote:
                for version, files in contents.items():
                    plan, data = remote.restore(version)
                    out = tmp_path / f"wire-out-{version}"
                    materialize(plan, data, str(out))
                    restored = {
                        rel: open(path, "rb").read()
                        for rel, path in read_tree(str(out))
                    }
                    assert restored == files

        # Persistence: a fresh daemon over the same root still serves it.
        with DaemonThread(str(served)) as address:
            from repro.client import RemoteRepository

            with RemoteRepository(address, "mirror") as remote:
                rows = remote.versions()
                assert [row["version_id"] for row in rows] == sorted(contents)
                doc = remote.verify(deep=True)
                assert doc["ok"], doc

    def test_remote_self_sync_rejected_same_daemon_tenant(self, tmp_path):
        served = tmp_path / "served"
        tenant_root = served / "tenant"
        _build_repo(tenant_root, tmp_path / "src", versions=1)
        with DaemonThread(str(served)) as address:
            mirror = RemoteMirror(address, "tenant")
            try:
                session = ReplicationSession(str(tenant_root), mirror)
                with pytest.raises(ReplicationError, match="self-sync"):
                    session.run()
            finally:
                mirror.close()

    def test_remote_fetch_and_bad_names_rejected(self, tmp_path):
        # versions=2 so at least one archival container has been sealed.
        _build_repo(tmp_path / "repo", tmp_path / "src", versions=2)
        with DaemonThread(str(tmp_path / "served")) as address:
            mirror = RemoteMirror(address, "m")
            try:
                ReplicationSession(str(tmp_path / "repo"), mirror).run()
                name = os.path.basename(
                    sorted(glob.glob(str(tmp_path / "repo/containers/*.hdsc")))[0]
                )
                blob = mirror.fetch("container", name)
                with open(tmp_path / "repo/containers" / name, "rb") as handle:
                    assert handle.read() == blob
                with pytest.raises(ReplicationError):
                    mirror.fetch("container", "../../etc/passwd")
                with pytest.raises(ReplicationError):
                    mirror.fetch("container", "container-99999999.hdsc")
            finally:
                mirror.close()


# ----------------------------------------------------------------------
# Repair
# ----------------------------------------------------------------------
class _RejectedPutPool:
    """A pool whose connection dies on its first wire write, the server's
    ERROR frame already waiting — what a rejected ``REPLICATE_PUT`` looks
    like from the sending side."""

    def __init__(self, error):
        self.error, self.sends, self.acquired = error, [], 0

    def acquire(self):
        self.acquired += 1
        return self

    def next_trace(self):
        return "t-1"

    def send_parts(self, parts):
        self.sends.append([bytes(part) for part in parts])
        raise BrokenPipeError("peer closed")

    def pending_error(self):
        return json.dumps({"error": type(self.error).__name__, "message": str(self.error)}).encode()

    def close(self):
        pass

    release = staticmethod(lambda conn: None)


@pytest.mark.parametrize("size", [0, 700, 3 * 256 * 1024], ids=["empty", "one frame", "several"])
def test_a_rejected_put_surfaces_the_servers_error_whatever_its_size(size):
    """A head, a manifest or a tables part is a single data frame, sent in
    the same write as the announcement: a rejection that kills that write
    must still arrive as the typed error, not as a retried ``OSError``."""
    from repro.client import RemoteRepository

    pool = _RejectedPutPool(ReplicationError("invalid checkpoint object name 'x'"))
    remote = RemoteRepository(("127.0.0.1", 1), "mirror", pool=pool, retries=3, backoff=0.0)
    with pytest.raises(ReplicationError, match="invalid checkpoint object name"):
        remote.replicate_put("checkpoint", "checkpoint.json", b"h" * size, "", staged=True)
    assert pool.acquired == 1 and len(pool.sends) == 1  # answered: not retried
    assert len(pool.sends[0]) == (1 if size == 0 else 3)  # announcement [+ header + payload]


def _first_container(repo_root):
    return sorted(glob.glob(os.path.join(str(repo_root), "containers", "*.hdsc")))[0]


def _flip_payload_byte(path):
    with open(path, "rb") as handle:
        blob = bytearray(handle.read())
    blob[-4] ^= 0xFF  # payload region sits at the end of the file
    with open(path, "wb") as handle:
        handle.write(bytes(blob))


class TestRepair:
    @pytest.fixture
    def mirrored(self, tmp_path):
        # versions=3 seals two distinct archival containers, so tests can
        # damage two different files.
        _, contents = _build_repo(tmp_path / "repo", tmp_path / "src", versions=3)
        ReplicationSession(
            str(tmp_path / "repo"), LocalMirror(str(tmp_path / "mirror"))
        ).run()
        return tmp_path, contents

    def test_payload_bitflip_caught_only_by_deep_verify_then_repaired(self, mirrored):
        tmp_path, contents = mirrored
        victim = _first_container(tmp_path / "repo")
        _flip_payload_byte(victim)
        # The container still unpacks — shallow verification is blind to
        # the flip; deep payload re-hashing is the whole point.
        assert verify_repository(str(tmp_path / "repo"), deep=False).ok
        assert not verify_repository(str(tmp_path / "repo"), deep=True).ok

        report = repair_from_mirror(
            str(tmp_path / "repo"), LocalMirror(str(tmp_path / "mirror"))
        )
        assert report.ok and report.repaired == [os.path.basename(victim)]
        assert verify_repository(str(tmp_path / "repo"), deep=True).ok
        _assert_mirror_serves(tmp_path / "repo", contents, tmp_path, "repaired")

    def test_truncated_and_missing_containers_repaired(self, mirrored):
        tmp_path, contents = mirrored
        containers = sorted(
            glob.glob(str(tmp_path / "repo" / "containers" / "*.hdsc"))
        )
        with open(containers[0], "r+b") as handle:
            handle.truncate(10)
        os.remove(containers[-1])
        scanned, bad = scan_containers(str(tmp_path / "repo"))
        assert set(bad) == {os.path.basename(containers[0]), os.path.basename(containers[-1])}
        assert bad[os.path.basename(containers[-1])] == "missing"

        report = repair_from_mirror(
            str(tmp_path / "repo"), LocalMirror(str(tmp_path / "mirror"))
        )
        assert report.ok and len(report.repaired) == 2
        assert verify_repository(str(tmp_path / "repo"), deep=True).ok
        _assert_mirror_serves(tmp_path / "repo", contents, tmp_path, "refetched")

    def test_corrupt_mirror_copy_rejected_not_installed(self, mirrored):
        tmp_path, _ = mirrored
        victim = _first_container(tmp_path / "repo")
        _flip_payload_byte(victim)
        twin = os.path.join(
            str(tmp_path / "mirror"), "containers", os.path.basename(victim)
        )
        _flip_payload_byte(twin)  # mirror damaged too, differently placed

        with open(victim, "rb") as handle:
            before = handle.read()
        report = repair_from_mirror(
            str(tmp_path / "repo"), LocalMirror(str(tmp_path / "mirror"))
        )
        assert not report.ok
        assert os.path.basename(victim) in report.unrepaired
        with open(victim, "rb") as handle:
            assert handle.read() == before, "repair installed an invalid blob"

    def test_repair_from_remote_mirror(self, mirrored):
        tmp_path, contents = mirrored
        served = tmp_path / "served"
        with DaemonThread(str(served)) as address:
            mirror = RemoteMirror(address, "mirror")
            try:
                ReplicationSession(str(tmp_path / "repo"), mirror).run()
                victim = _first_container(tmp_path / "repo")
                _flip_payload_byte(victim)
                report = repair_from_mirror(str(tmp_path / "repo"), mirror)
                assert report.ok and report.repaired == [os.path.basename(victim)]
            finally:
                mirror.close()
        assert verify_repository(str(tmp_path / "repo"), deep=True).ok

    def test_self_repair_rejected(self, mirrored):
        tmp_path, _ = mirrored
        with pytest.raises(ReplicationError, match="repair"):
            repair_from_mirror(
                str(tmp_path / "repo"), LocalMirror(str(tmp_path / "repo"))
            )

    def test_check_container_blob_verdicts(self, mirrored):
        tmp_path, _ = mirrored
        victim = _first_container(tmp_path / "repo")
        cid = int(os.path.basename(victim)[len("container-") : -len(".hdsc")])
        with open(victim, "rb") as handle:
            blob = handle.read()
        assert check_container_blob(blob, cid) is None
        assert "unreadable" in check_container_blob(b"garbage", cid)
        assert "unreadable" in check_container_blob(blob, cid + 1)  # wrong ID
        flipped = bytearray(blob)
        flipped[-4] ^= 0xFF
        assert "re-hash" in check_container_blob(bytes(flipped), cid)
        assert check_container_blob(bytes(flipped), cid, deep=False) is None


# ----------------------------------------------------------------------
# Registry lock semantics under replication (the daemon's reader lock)
# ----------------------------------------------------------------------
class GatedTarget:
    """A LocalMirror whose first put blocks until the test releases it."""

    def __init__(self, root):
        self.inner = LocalMirror(str(root))
        self.entered = threading.Event()
        self.gate = threading.Event()

    def state(self):
        return self.inner.state()

    def put(self, kind, name, blob, staged=False):
        self.entered.set()
        assert self.gate.wait(timeout=30), "test never released the gated mirror"
        self.inner.put(kind, name, blob, staged)

    def commit(self, renames, deletes):
        self.inner.commit(renames, deletes)

    def fetch(self, kind, name):
        return self.inner.fetch(kind, name)

    def identity(self):
        return self.inner.identity()

    def close(self):
        pass


def test_replication_lock_semantics(tmp_path):
    """Sync under the reader lock: restores run concurrently, deletion
    waits, the deletion propagates on the next sync, nothing deadlocks."""

    async def scenario():
        daemon = BackupDaemon(str(tmp_path / "root"))
        tenant_root = os.path.join(str(tmp_path / "root"), "tenant")
        _build_repo(tenant_root, tmp_path / "src", versions=2)
        handle = daemon.registry.get("tenant")
        target = GatedTarget(tmp_path / "mirror")

        sync_task = asyncio.ensure_future(daemon.replicate_tenant("tenant", target))
        await asyncio.to_thread(target.entered.wait, 10)

        # A reader proceeds while the sync holds the read lock.
        async with handle.lock.read_locked():
            rows = await asyncio.to_thread(handle.repository.versions)
        assert [row["version_id"] for row in rows] == [1, 2]

        # A writer (delete_oldest) must wait for the in-flight sync.
        async def delete_oldest():
            async with handle.lock.write_locked():
                return await asyncio.to_thread(handle.repository.delete_oldest)

        delete_task = asyncio.ensure_future(delete_oldest())
        await asyncio.sleep(0.3)
        assert not delete_task.done(), (
            "delete_oldest ran during an in-flight sync (snapshot torn)"
        )

        target.gate.set()
        report = await asyncio.wait_for(sync_task, timeout=60)
        assert report.committed
        deleted = await asyncio.wait_for(delete_task, timeout=60)
        assert deleted["version_id"] == 1

        # The sync that ran concurrently saw the pre-delete snapshot...
        mirrored = LocalRepository(str(tmp_path / "mirror"))
        assert [r["version_id"] for r in mirrored.versions()] == [1, 2]
        # ...and the deletion propagates on the next sync.
        follow_up = await asyncio.wait_for(
            daemon.replicate_tenant("tenant", target.inner), timeout=60
        )
        assert follow_up.objects_deleted > 0
        mirrored.invalidate()
        assert [r["version_id"] for r in mirrored.versions()] == [2]

    asyncio.run(asyncio.wait_for(scenario(), timeout=120))


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestReplicationCli:
    def test_replicate_repair_verify_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        _, contents = _build_repo(tmp_path / "repo", tmp_path / "src", versions=2)
        repo, mirror = str(tmp_path / "repo"), str(tmp_path / "mirror")

        assert main(["replicate", repo, mirror, "--dry-run"]) == 0
        assert "would ship" in capsys.readouterr().out
        assert main(["replicate", repo, mirror]) == 0
        assert main(["verify", mirror, "--deep"]) == 0

        victim = _first_container(repo)
        _flip_payload_byte(victim)
        assert main(["verify", repo]) == 0  # shallow misses payload flips
        assert main(["verify", repo, "--deep"]) == 1
        assert main(["repair", repo, "--from", mirror]) == 0
        assert main(["verify", repo, "--deep"]) == 0

    def test_replicate_rejects_source_as_target(self, tmp_path):
        from repro.cli import main

        _build_repo(tmp_path / "repo", tmp_path / "src", versions=1)
        repo = str(tmp_path / "repo")
        assert main(["replicate", repo, repo]) == 1
        assert main(["repair", repo, "--from", repo]) == 1

    def test_remote_replicate_and_verify(self, tmp_path, capsys):
        from repro.cli import main

        _build_repo(tmp_path / "repo", tmp_path / "src", versions=2)
        repo = str(tmp_path / "repo")
        with DaemonThread(str(tmp_path / "served")) as address:
            assert main(["replicate", repo, "mirror", "--remote", address]) == 0
            assert main(["verify", "mirror", "--remote", address, "--deep"]) == 0
            out = capsys.readouterr().out
            assert "replicated" in out and "OK" in out
