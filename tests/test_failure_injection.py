"""Failure-injection tests: damaged stores must fail loudly, not corrupt.

A backup system's worst behaviour is silently returning wrong bytes.  These
tests damage containers, recipes and checkpoints in targeted ways and assert
that every path either raises a library error or flags the damage in
verification — never yields corrupt data as if healthy.
"""

import json
import os

import pytest

from repro.core import HiDeStore, load_checkpoint, save_checkpoint, verify_system
from repro.errors import (
    RecipeError,
    ReproError,
    RestoreError,
    StorageError,
    UnknownChunkError,
    UnknownContainerError,
)
from repro.index import ExactFullIndex
from repro.pipeline.system import BackupSystem
from repro.storage import FileContainerStore, FileRecipeStore, pack_container
from repro.units import KiB
from tests.conftest import make_stream


def traditional(workload):
    system = BackupSystem(ExactFullIndex(), container_size=64 * KiB)
    for stream in workload.versions():
        system.backup(stream)
    return system


def hidestore(workload):
    system = HiDeStore(container_size=64 * KiB)
    for stream in workload.versions():
        system.backup(stream)
    return system


class TestMissingContainers:
    def test_traditional_restore_raises(self, small_workload):
        system = traditional(small_workload)
        victim = system.recipes.peek(1).referenced_containers()[0]
        system.containers.delete(victim)
        with pytest.raises(UnknownContainerError):
            list(system.restore_chunks(1))

    def test_hidestore_restore_raises_for_lost_archival(self, small_workload):
        system = hidestore(small_workload)
        recipe = system.chain.flatten()[1]
        archival = [e.cid for e in recipe.entries if e.cid > 0]
        assert archival
        system.containers.delete(archival[0])
        with pytest.raises(UnknownContainerError):
            list(system.restore_chunks(1))

    def test_verify_flags_before_restore_burns(self, small_workload):
        system = traditional(small_workload)
        victim = system.recipes.peek(1).referenced_containers()[0]
        system.containers.delete(victim)
        assert not verify_system(system).ok


class TestWrongChunkInContainer:
    def test_missing_chunk_raises_not_silence(self, small_workload):
        system = traditional(small_workload)
        recipe = system.recipes.peek(1)
        entry = recipe.entries[0]
        store = system.containers
        container = store.peek(entry.cid)
        container.sealed = False
        container.remove(entry.fingerprint)
        store.backend.put_meta(store._name(entry.cid), pack_container(container))
        with pytest.raises(UnknownChunkError):
            list(system.restore_chunks(1))


class TestDamagedFileStores:
    def _file_system(self, tmp_path, workload):
        system = HiDeStore(
            container_store=FileContainerStore(str(tmp_path / "c")),
            recipe_store=FileRecipeStore(str(tmp_path / "r")),
            container_size=64 * KiB,
        )
        for stream in workload.versions():
            system.backup(stream)
        system.retire()
        return system

    def test_truncated_container_file(self, tmp_path, small_workload):
        system = self._file_system(tmp_path, small_workload)
        containers_dir = str(tmp_path / "c")
        victim = sorted(os.listdir(containers_dir))[0]
        path = os.path.join(containers_dir, victim)
        with open(path, "r+b") as handle:
            handle.truncate(16)
        with pytest.raises((StorageError, ReproError)):
            reloaded = FileContainerStore(containers_dir)
            reloaded.read(reloaded.container_ids()[0])

    def test_garbage_recipe_file(self, tmp_path, small_workload):
        self._file_system(tmp_path, small_workload)
        recipes_dir = str(tmp_path / "r")
        victim = sorted(os.listdir(recipes_dir))[0]
        with open(os.path.join(recipes_dir, victim), "wb") as handle:
            handle.write(b"not a recipe at all")
        store = FileRecipeStore(recipes_dir)
        with pytest.raises(RecipeError):
            store.read(store.version_ids()[0])


class TestDamagedCheckpoints:
    def _checkpointed(self, tmp_path, workload):
        system = HiDeStore(
            container_store=FileContainerStore(str(tmp_path / "c")),
            recipe_store=FileRecipeStore(str(tmp_path / "r")),
            container_size=64 * KiB,
        )
        for stream in workload.versions():
            system.backup(stream)
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(system, path)
        return path

    def test_truncated_checkpoint_raises(self, tmp_path, small_workload):
        path = self._checkpointed(tmp_path, small_workload)
        with open(path, "r+") as handle:
            handle.truncate(50)
        with pytest.raises((ReproError, ValueError)):
            load_checkpoint(path)

    def test_tampered_format_raises(self, tmp_path, small_workload):
        path = self._checkpointed(tmp_path, small_workload)
        with open(path) as handle:
            document = json.load(handle)
        document["format"] = "evil"
        with open(path, "w") as handle:
            json.dump(document, handle)
        with pytest.raises(ReproError):
            load_checkpoint(path)

    def test_checkpoint_with_wrong_stores_fails_verification(self, tmp_path, small_workload):
        path = self._checkpointed(tmp_path, small_workload)
        # Against an EMPTY container store the open itself refuses: the
        # active containers the head names are not there.
        with pytest.raises(ReproError, match="active container object"):
            load_checkpoint(path)
        # Against EMPTY recipes the structure loads; verification must flag.
        system = load_checkpoint(path, FileContainerStore(str(tmp_path / "c")))
        report = verify_system(system)
        assert not report.ok


class TestHiDeStoreStateCorruption:
    def test_restore_of_unflattened_deleted_chain_raises(self, small_workload):
        """Breaking the chain by hand must surface, not wrap around."""
        system = hidestore(small_workload)
        # Point v1's first entry at a recipe that will never exist, in the
        # stored recipe (the recipe is replaced, as bit rot or a bad copy would).
        recipe = system.recipes.peek(1)
        recipe.entries[0].cid = -99
        system.recipes.delete(1)
        system.recipes.write(recipe)
        assert system.recipes.peek(1).entries[0].cid == -99
        # Flatten treats "past newest" as active; the chunk is genuinely
        # active here, so restore still works...
        restored = list(system.restore_chunks(1))
        assert len(restored) == len(small_workload.version(1))

    def test_active_location_loss_raises_on_restore(self, small_workload):
        system = hidestore(small_workload)
        fp = next(iter(system.pool.location))
        del system.pool.location[fp]
        newest = system.recipes.latest_version()
        if any(e.fingerprint == fp for e in system.recipes.peek(newest).entries):
            with pytest.raises(RestoreError):
                list(system.restore_chunks(newest))


class TestAtomicWrites:
    def test_no_tmp_litter_after_backups(self, tmp_path, small_workload):
        system = HiDeStore(
            container_store=FileContainerStore(str(tmp_path / "c")),
            recipe_store=FileRecipeStore(str(tmp_path / "r")),
            container_size=64 * KiB,
        )
        for stream in small_workload.versions():
            system.backup(stream)
        system.retire()
        for sub in ("c", "r"):
            names = os.listdir(str(tmp_path / sub))
            assert not [n for n in names if n.endswith(".tmp")]

    def test_checkpoint_write_is_atomic(self, tmp_path, small_workload):
        system = hidestore(small_workload)
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(system, path)
        save_checkpoint(system, path)  # overwrite in place
        assert not os.path.exists(path + ".tmp")
        load_checkpoint(path, system.containers, system.recipes)


# ----------------------------------------------------------------------
# Daemon-level fault injection (chaos harness seams)
# ----------------------------------------------------------------------
def _daemon_tree(root, files=3, size=20_000, seed=3):
    import random

    from repro.repository import read_tree

    rng = random.Random(seed)
    os.makedirs(root, exist_ok=True)
    for index in range(files):
        with open(os.path.join(root, f"file{index}.bin"), "wb") as handle:
            handle.write(rng.randbytes(size))
    return read_tree(root)


class TestDaemonDiskFull:
    def test_enospc_mid_container_seal_rolls_back(self, tmp_path):
        """An injected ENOSPC while the daemon seals a container must fail
        the backup typed and leave zero trace — and the very next backup
        (same tenant, same daemon) must succeed."""
        from repro.chaos.faults import FaultController
        from repro.client import RemoteRepository
        from repro.server import DaemonThread

        tree = _daemon_tree(str(tmp_path / "tree"))
        controller = FaultController()
        with controller:  # installed before the daemon builds backends
            with DaemonThread(str(tmp_path / "served")) as address:
                repo = RemoteRepository(address, "tenant-a")
                try:
                    repo.backup_tree(tree, tag="v1")
                    before = repo.versions()
                    controller.arm(
                        "enospc", op="put", match_name="container"
                    )
                    _daemon_tree(str(tmp_path / "tree"), seed=4)
                    from repro.repository import read_tree

                    churned = read_tree(str(tmp_path / "tree"))
                    with pytest.raises(ReproError):
                        repo.backup_tree(churned, tag="v2")
                    # Rollback: nothing new listed, nothing half-written.
                    assert repo.versions() == before
                    assert repo.verify(deep=True)["ok"]
                    # The fault consumed itself; the retry lands.
                    report = repo.backup_tree(churned, tag="v2-retry")
                    after = [row["version_id"] for row in repo.versions()]
                    assert report["version_id"] in after
                    assert len(after) == len(before) + 1
                    assert repo.verify(deep=True)["ok"]
                finally:
                    repo.close()


class TestFailedFirstBackup:
    @pytest.mark.parametrize("kind", ["file", "sqlite"])
    def test_a_failed_first_backup_leaves_no_repository(self, tmp_path, kind):
        """Backup is the only operation that creates a repository, and a
        failed one changes nothing: no directory or ``.db`` stays behind,
        and reads still answer ``RepositoryNotFoundError`` (DESIGN §11)."""
        from repro.chaos.faults import FaultController
        from repro.errors import RepositoryNotFoundError
        from repro.repository import LocalRepository

        spec = str(tmp_path / "repo") if kind == "file" else f"sqlite://{tmp_path}/repo.db"
        data = os.urandom(300_000)
        plan = [("a.bin", len(data))]
        with FaultController() as controller:  # installed before any backend
            repo = LocalRepository(spec)
            controller.arm("enospc", op="put", match_name="container")
            with pytest.raises(ReproError):
                repo.backup_blocks([data], plan)
            assert controller.fired
            assert os.listdir(tmp_path) == []
            with pytest.raises(RepositoryNotFoundError):
                repo.versions()
            # The fault consumed itself; the retry creates the repository.
            report = repo.backup_blocks([data], plan)
            assert b"".join(repo.restore(report["version_id"])[1]) == data
            repo.close()


class TestReplicateWireCorruption:
    def test_bitflip_in_transit_rejected_by_digest_validation(self, tmp_path):
        """A container blob corrupted between the source digest computation
        and the mirror daemon must be rejected server-side, leaving the
        mirror clean; the clean retry then succeeds."""
        from repro.chaos.faults import FaultController, WireCorruptingMirror
        from repro.errors import ReplicationError
        from repro.replication import ReplicationSession
        from repro.replication.repair import verify_repository
        from repro.replication.targets import RemoteMirror
        from repro.repository import LocalRepository
        from repro.server import DaemonThread

        source_root = str(tmp_path / "source")
        repo = LocalRepository(source_root)
        repo.backup_tree(_daemon_tree(str(tmp_path / "tree")), tag="v1")
        repo.backup_tree(_daemon_tree(str(tmp_path / "tree"), seed=5), tag="v2")

        controller = FaultController()
        with DaemonThread(str(tmp_path / "mirror")) as address:
            target = WireCorruptingMirror(
                RemoteMirror(address, "tenant-a"), controller
            )
            try:
                with pytest.raises(ReplicationError, match="digest validation"):
                    ReplicationSession(source_root, target, journal="").run()
            finally:
                target.close()
            assert [f["kind"] for f in controller.fired] == ["corrupt_transit"]

            # The clean retry ships everything and the mirror verifies.
            clean = RemoteMirror(address, "tenant-a")
            try:
                report = ReplicationSession(source_root, clean, journal="").run()
            finally:
                clean.close()
            assert report.objects_shipped > 0
        mirror_root = os.path.join(str(tmp_path / "mirror"), "tenant-a")
        assert verify_repository(mirror_root, deep=True).ok
        mirror_repo = LocalRepository(mirror_root)
        assert [row["version_id"] for row in mirror_repo.versions()] == [1, 2]


class TestKillMidBackup:
    def test_sigkill_mid_backup_leaves_no_partial_version(self, tmp_path):
        """Killing the daemon while a backup has a container in flight must
        leave the repository without the new version — never torn — and a
        restarted daemon serves it."""
        from repro.chaos.faults import FaultController
        from repro.client import RemoteRepository
        from repro.server import DaemonThread
        from tests.crashpoints import kill_in_flight

        tree = _daemon_tree(str(tmp_path / "tree"), files=4, size=60_000)
        controller = FaultController()
        with controller:
            daemon = DaemonThread(str(tmp_path / "served"))
            daemon.start()
            port = daemon.daemon.port
            repo = RemoteRepository(f"127.0.0.1:{port}", "tenant-a")
            try:
                repo.backup_tree(tree, tag="v1")
                # The victim put kills the daemon from its own thread: it
                # never lands, so the backup cannot win the race, and the
                # shutdown rolls it back before kill() returns.
                controller.arm(
                    "observe", op="put", match_name="container",
                    callback=kill_in_flight(daemon, controller),
                )
                churned = _daemon_tree(str(tmp_path / "tree"), files=4,
                                       size=60_000, seed=9)
                with pytest.raises(ReproError):
                    repo.backup_tree(churned, tag="v2")
                daemon.kill()
                assert [f["kind"] for f in controller.fired] == ["kill_primary"]
            finally:
                repo.close()

            # Restart on the same root: no torn version, state verifies.
            with DaemonThread(str(tmp_path / "served"), port=port) as address:
                again = RemoteRepository(address, "tenant-a")
                try:
                    ids = [row["version_id"] for row in again.versions()]
                    assert ids == [1]
                    assert again.verify(deep=True)["ok"]
                    # And the tenant accepts new work immediately.
                    report = again.backup_tree(churned, tag="after-restart")
                    assert report["version_id"] > ids[-1]
                    assert again.verify(deep=True)["ok"]
                finally:
                    again.close()

    def test_a_kill_mid_backup_leaves_no_task_pending(self, tmp_path):
        """A kill whose drain finds a backup's engine mid-write waits that
        engine out: once ``kill()`` returns, no session thread of the
        daemon is alive and the version rolled back."""
        import threading
        import time

        from repro.chaos.faults import FaultController
        from repro.client import RemoteRepository
        from repro.repository import LocalRepository
        from repro.server import DaemonThread

        daemon = DaemonThread(str(tmp_path / "served"))
        sessions, draining = [], threading.Event()

        def die(_url, name):
            # Held until the shutdown, started from another thread, is
            # draining, so it has to wait for this session's rollback.
            sessions.extend(daemon.daemon._sessions)
            threading.Thread(target=daemon.daemon.shutdown, args=(0,), daemon=True).start()
            while not daemon.daemon.draining:
                time.sleep(0.001)
            draining.set()
            raise StorageError(f"daemon killed with {name!r} in flight")

        with FaultController() as controller:
            address = daemon.start()
            repo = RemoteRepository(address, "tenant-a")
            try:
                repo.backup_tree(_daemon_tree(str(tmp_path / "tree")), tag="v1")
                controller.arm("observe", op="put", match_name="container", callback=die)
                churned = _daemon_tree(str(tmp_path / "tree"), seed=9)
                with pytest.raises(ReproError):
                    repo.backup_tree(churned, tag="v2")
                daemon.kill()
            finally:
                repo.close()
        assert draining.is_set() and sessions
        assert not [session for session in sessions if session.is_alive()]
        assert not daemon.daemon._sessions
        served = LocalRepository(os.path.join(str(tmp_path / "served"), "tenant-a"))
        assert [row["version_id"] for row in served.versions()] == [1]
