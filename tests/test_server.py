"""Integration tests for the backup daemon + remote client + CLI wiring.

Every test runs a real :class:`BackupDaemon` on a background event-loop
thread (port 0 → a free port), with real sockets and the real engine
underneath — these are the acceptance tests for the networked service:
byte-identical restores, local/remote equivalence, multi-tenant
concurrency, writer-lock serialisation and crash rollback.
"""

import os
import socket
import threading
import time

import pytest

from repro.client import ConnectionPool, RemoteRepository
from repro.client.protocol import FrameType, encode_json
from repro.client.remote import Connection, parse_address
from repro.errors import (
    ProtocolError,
    RemoteError,
    RepositoryNotFoundError,
    ReproError,
    ServerDrainingError,
    StorageError,
    TimeoutExceededError,
)
from repro.repository import LocalRepository, materialize, read_tree
from repro.server import DaemonThread


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
@pytest.fixture
def daemon(tmp_path):
    thread = DaemonThread(str(tmp_path / "served"))
    address = thread.start()
    yield thread, address
    thread.stop(drain_timeout=5)


def make_tree(base, files):
    """Write {relative name: bytes} under ``base``; returns read_tree rows."""
    os.makedirs(base, exist_ok=True)
    for rel, payload in files.items():
        path = os.path.join(base, rel)
        os.makedirs(os.path.dirname(path) or base, exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(payload)
    return read_tree(base)


def tree_bytes(base):
    return {rel: open(path, "rb").read() for rel, path in read_tree(base)}


def synthetic_files(seed, count=4, size=40_000):
    """Deterministic pseudo-random file contents (FastCDC needs entropy
    to place cut points; repetitive data degenerates to max-size chunks)."""
    import random

    rng = random.Random(seed)
    return {
        f"dir{i % 2}/file{i}.bin": rng.randbytes(size) for i in range(count)
    }


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------
class TestServiceCounters:
    def test_counters_and_server_stats(self, daemon, tmp_path):
        """What a tenant's STATS adds to the repository document: the
        service counters, and the daemon-wide view."""
        _, address = daemon
        files = synthetic_files(4)
        with RemoteRepository(address, "alpha") as repo:
            for i in range(2):
                files["dir0/file0.bin"] += bytes([i]) * 5000
                repo.backup_tree(make_tree(str(tmp_path / "src"), files), tag=f"v{i}")
            repo.delete_oldest()
            stats = repo.stats()
            assert stats["repo"] == "alpha"
            assert stats["counters"]["backups"] == 2
            assert stats["counters"]["deletes"] == 1
            doc = repo.server_stats()
            assert "alpha" in doc["repos"]
            assert doc["server"]["draining"] is False

    def test_invalid_tenant_name_is_refused(self, daemon, tmp_path):
        _, address = daemon
        entries = make_tree(str(tmp_path / "src"), synthetic_files(6))
        with RemoteRepository(address, "..") as repo:
            with pytest.raises(ReproError, match="invalid repository name") as info:
                repo.backup_tree(entries)
        assert type(info.value) is ReproError


# ----------------------------------------------------------------------
# Concurrency (the ISSUE acceptance scenario)
# ----------------------------------------------------------------------
class TestConcurrency:
    def test_four_tenants_concurrently(self, daemon, tmp_path):
        """4 clients backing up different repos concurrently, then restoring;
        every restore is byte-identical to a local-engine run of the same data."""
        _, address = daemon
        failures = []

        def client(idx):
            try:
                files = synthetic_files(idx + 10)
                entries = make_tree(str(tmp_path / f"src{idx}"), files)
                with RemoteRepository(address, f"tenant{idx}") as repo:
                    report = repo.backup_tree(entries, tag=f"t{idx}")
                    plan, data = repo.restore(report["version_id"])
                    materialize(plan, data, str(tmp_path / f"out{idx}"))
                local = LocalRepository(str(tmp_path / f"local{idx}"))
                local_report = local.backup_tree(entries, tag=f"t{idx}")
                assert report == local_report
                assert tree_bytes(str(tmp_path / f"out{idx}")) == files
            except BaseException as exc:  # noqa: BLE001 - collected for the assert
                failures.append((idx, exc))

        threads = [threading.Thread(target=client, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert failures == []

    def test_same_repo_writers_serialised(self, daemon, tmp_path):
        """2 clients racing the same repo: the writer lock serialises them —
        both succeed, versions 1 and 2 exist, each restore is intact."""
        _, address = daemon
        failures = []
        sources = {}
        for idx in range(2):
            files = synthetic_files(idx + 20)
            sources[idx] = (files, make_tree(str(tmp_path / f"src{idx}"), files))

        def client(idx):
            try:
                with RemoteRepository(address, "shared") as repo:
                    report = repo.backup_tree(sources[idx][1], tag=f"racer{idx}")
                    sources[idx] = (*sources[idx], report["version_id"])
            except BaseException as exc:  # noqa: BLE001
                failures.append((idx, exc))

        threads = [threading.Thread(target=client, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert failures == []
        with RemoteRepository(address, "shared") as repo:
            rows = repo.versions()
            assert [r["version_id"] for r in rows] == [1, 2]
            for idx in range(2):
                files, _entries, version = sources[idx]
                plan, data = repo.restore(version)
                out = str(tmp_path / f"rout{idx}")
                materialize(plan, data, out)
                assert tree_bytes(out) == files

    def test_concurrent_restores_same_repo(self, daemon, tmp_path):
        _, address = daemon
        files = synthetic_files(5)
        entries = make_tree(str(tmp_path / "src"), files)
        with RemoteRepository(address, "alpha") as repo:
            repo.backup_tree(entries, tag="v1")
        failures = []

        def reader(idx):
            try:
                with RemoteRepository(address, "alpha") as repo:
                    plan, data = repo.restore(1)
                    out = str(tmp_path / f"out{idx}")
                    materialize(plan, data, out)
                    assert tree_bytes(out) == files
            except BaseException as exc:  # noqa: BLE001
                failures.append((idx, exc))

        threads = [threading.Thread(target=reader, args=(i,)) for i in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert failures == []


# ----------------------------------------------------------------------
# Relative-name safety (path traversal + manifest corruption)
# ----------------------------------------------------------------------
class TestRelNameSafety:
    """Plans from the wire (or tampered manifests) must not escape the
    restore target or corrupt the tab-separated manifest encoding."""

    EVIL = [
        "../../escape.bin",
        "/etc/passwd",
        "a/../../b",
        "evil\nname",
        "tab\tname",
        "c\\..\\up",
        "",
    ]

    def test_materialize_rejects_traversal(self, tmp_path):
        target = str(tmp_path / "nest" / "out")
        for rel in self.EVIL:
            with pytest.raises(ReproError):
                materialize([(rel, 4)], iter([b"data"]), target)
        written = [
            os.path.join(root, name)
            for root, _dirs, names in os.walk(str(tmp_path))
            for name in names
        ]
        assert written == []  # nothing landed anywhere, in or out of target

    def test_local_backup_rejects_unsafe_plan(self, tmp_path):
        repo = LocalRepository(str(tmp_path / "repo"))
        for rel in self.EVIL:
            with pytest.raises(ReproError):
                repo.backup_blocks(iter([b"x" * 4]), [(rel, 4)])
        # Refused before the repository was opened: none was created.
        with pytest.raises(RepositoryNotFoundError):
            repo.versions()

    def test_daemon_rejects_unsafe_plan_at_ingest(self, daemon, tmp_path):
        _, address = daemon
        entries = make_tree(str(tmp_path / "src"), {"ok.bin": b"k" * 100})
        with RemoteRepository(address, "alpha") as repo:
            repo.backup_tree(entries, tag="good")
            for rel in self.EVIL:
                with pytest.raises(ReproError):
                    repo.backup_blocks(iter([b"payload"]), [(rel, 7)], tag="evil")
            # None of the rejected attempts became a version.
            assert [r["version_id"] for r in repo.versions()] == [1]


# ----------------------------------------------------------------------
# Failure semantics
# ----------------------------------------------------------------------
class TestFailureSemantics:
    def test_client_abort_mid_backup_rolls_back(self, daemon, tmp_path):
        """A client that dies mid-stream leaves no version, no manifest, no
        tmp litter — and the repository still accepts the next backup."""
        thread, address = daemon
        files = synthetic_files(7, count=2, size=400_000)
        entries = make_tree(str(tmp_path / "src"), files)

        class Dies(Exception):
            pass

        def poisoned_blocks():
            yield open(entries[0][1], "rb").read(65536)
            raise Dies()

        plan = [(rel, os.path.getsize(path)) for rel, path in entries]
        with RemoteRepository(address, "alpha") as repo:
            with pytest.raises((Dies, ReproError, OSError)):
                repo.backup_blocks(poisoned_blocks(), plan, tag="doomed")
            # The server rolled back: no version is visible.
            assert repo.versions() == []
            report = repo.backup_tree(entries, tag="clean")
            assert report["version_id"] == 1
        repo_dir = os.path.join(thread.daemon.registry.root, "alpha")
        litter = [
            name
            for _root, _dirs, names in os.walk(repo_dir)
            for name in names
            if name.endswith(".tmp")
        ]
        assert litter == []

    def test_kill_mid_backup_leaves_no_partial_version(self, tmp_path):
        """Killing the server mid-backup (zero-drain shutdown) rolls the
        repository back; a fresh daemon over the same root sees no partial
        version, no tmp files, and serves new backups."""
        root = str(tmp_path / "served")
        files = synthetic_files(8, count=2, size=300_000)
        entries = make_tree(str(tmp_path / "src"), files)
        plan = [(rel, os.path.getsize(path)) for rel, path in entries]
        thread = DaemonThread(root)
        address = thread.start()
        started = threading.Event()

        def stalled_blocks():
            yield open(entries[0][1], "rb").read(65536)
            started.set()
            yield open(entries[0][1], "rb").read()
            threading.Event().wait(30)  # stall until the kill severs us

        outcome = {}

        def victim():
            try:
                with RemoteRepository(address, "alpha", timeout=40) as repo:
                    outcome["report"] = repo.backup_blocks(stalled_blocks(), plan, "doomed")
            except BaseException as exc:  # noqa: BLE001 - expected to die
                outcome["error"] = exc

        worker = threading.Thread(target=victim, daemon=True)
        worker.start()
        assert started.wait(timeout=30)
        thread.kill()  # SIGTERM with no drain patience
        worker.join(timeout=30)
        assert "report" not in outcome  # the backup must NOT have completed

        repo_dir = os.path.join(root, "alpha")
        litter = [
            name
            for _root, _dirs, names in os.walk(repo_dir)
            for name in names
            if name.endswith(".tmp")
        ]
        assert litter == []
        # Restart over the same root: the partial version is invisible and
        # the repository takes a clean backup as version 1.
        thread2 = DaemonThread(root)
        address2 = thread2.start()
        try:
            with RemoteRepository(address2, "alpha") as repo:
                assert repo.versions() == []
                report = repo.backup_tree(entries, tag="recovered")
                assert report["version_id"] == 1
                plan2, data = repo.restore(1)
                materialize(plan2, data, str(tmp_path / "out"))
            assert tree_bytes(str(tmp_path / "out")) == files
        finally:
            thread2.stop(drain_timeout=5)

    def test_engine_failure_reaches_stalled_client(self, daemon, tmp_path):
        """An engine failure must surface as a typed ERROR frame right away,
        even while the client is blocked waiting for credit — not swallowed
        until the client times out."""
        thread, address = daemon
        handle = thread.daemon.registry.get("alpha", create=True)

        def exploding(blocks, plan, tag=""):
            raise StorageError("simulated disk full")

        handle.repository.backup_blocks = exploding
        blocks = (b"x" * 4096 for _ in range(5000))
        plan = [("file.bin", 4096 * 5000)]
        start = time.monotonic()
        with RemoteRepository(address, "alpha", timeout=60) as repo:
            with pytest.raises(ReproError) as info:
                repo.backup_blocks(blocks, plan, tag="doomed")
        assert not isinstance(info.value, TimeoutExceededError)
        assert time.monotonic() - start < 20  # old behavior: full 60s stall

    def test_draining_server_refuses_new_backups(self, daemon, tmp_path):
        thread, address = daemon
        entries = make_tree(str(tmp_path / "src"), synthetic_files(9, count=1))
        thread.daemon.draining = True
        try:
            with RemoteRepository(address, "alpha") as repo:
                with pytest.raises(ServerDrainingError):
                    repo.backup_tree(entries, tag="late")
        finally:
            thread.daemon.draining = False


# ----------------------------------------------------------------------
# Transport details
# ----------------------------------------------------------------------
class TestTransport:
    def test_parse_address(self):
        assert parse_address("127.0.0.1:7777") == ("127.0.0.1", 7777)
        assert parse_address("[::1]:7777") == ("::1", 7777)
        assert parse_address(("host", 9)) == ("host", 9)
        assert parse_address(("host", "8080")) == ("host", 8080)
        with pytest.raises(ProtocolError):
            parse_address("no-port")
        with pytest.raises(ProtocolError):
            parse_address("host:abc")
        with pytest.raises(ProtocolError):
            parse_address(("host", "notaport"))
        with pytest.raises(ProtocolError):
            parse_address(("host", 70000))
        with pytest.raises(ProtocolError):
            parse_address(("", 80))

    def test_foreign_client_rejected(self, daemon):
        _, address = daemon
        with socket.create_connection(parse_address(address), timeout=5) as sock:
            sock.sendall(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n")
            sock.settimeout(5)
            reply = sock.recv(65536)
        # Whatever bytes come back, they are not a HELLO_OK handshake.
        assert not reply or reply[4:5] != bytes([int(FrameType.HELLO_OK)])

    def test_unexpected_frame_between_requests(self, daemon):
        _, address = daemon
        conn = Connection(parse_address(address), timeout=5)
        try:
            conn.send(encode_json(FrameType.CREDIT, {"frames": 3}))
            with pytest.raises(ProtocolError):
                ftype, payload = conn.recv_frame()
                if ftype == FrameType.ERROR:
                    from repro.client.protocol import raise_remote_error

                    raise_remote_error(payload)
        finally:
            conn.close()

    def test_connection_pool_reuses_and_discards(self, daemon):
        _, address = daemon
        pool = ConnectionPool(parse_address(address), timeout=5, size=1)
        conn = pool.acquire()
        pool.release(conn)
        assert pool.acquire() is conn  # reused while healthy
        conn.broken = True
        pool.release(conn)
        conn2 = pool.acquire()
        assert conn2 is not conn  # broken connections never resurface
        conn2.close()
        pool.close()

    def test_retries_reach_a_late_server(self, tmp_path):
        """Idempotent requests retry with backoff until the daemon answers."""
        thread = DaemonThread(str(tmp_path / "served"))
        address = thread.start()
        host, port = parse_address(address)
        thread.stop(drain_timeout=0)  # daemon gone; port free again

        repo = RemoteRepository((host, port), "alpha", timeout=2, retries=4, backoff=0.3)
        late = {}

        def start_late():
            late["thread"] = DaemonThread(str(tmp_path / "served"), port=port)
            late["thread"].start()

        starter = threading.Timer(0.5, start_late)
        starter.start()
        try:
            doc = repo.server_stats()
            assert "repos" in doc
        finally:
            starter.join()
            repo.close()
            if "thread" in late:
                late["thread"].stop(drain_timeout=0)


# ----------------------------------------------------------------------
# The pooled-connection credit race (regression)
# ----------------------------------------------------------------------
class _StaleCreditServer:
    """A scripted protocol speaker that writes a CREDIT *after* BACKUP_DONE.

    Deterministically reproduces the race the real daemon used to have: a
    ``note_consumed`` callback landing after the completion frame.  The
    stale CREDIT arrives in the same TCP segment as BACKUP_DONE, so it is
    guaranteed to sit in the client connection's frame buffer when
    ``backup_blocks`` returns — exactly the state that used to poison the
    next pooled request.
    """

    def __init__(self):
        import socket as socket_mod

        self._listener = socket_mod.socket()
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(4)
        host, port = self._listener.getsockname()
        self.address = f"{host}:{port}"
        self._running = True
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def close(self):
        self._running = False
        self._listener.close()
        self._thread.join(timeout=5)

    def _serve(self):
        while self._running:
            try:
                sock, _peer = self._listener.accept()
            except OSError:
                return
            threading.Thread(
                target=self._handle, args=(sock,), daemon=True
            ).start()

    def _handle(self, sock):
        from repro.client.protocol import (
            MAGIC,
            PROTOCOL_VERSION,
            FrameDecoder,
            encode_json,
        )

        decoder = FrameDecoder()
        frames = []

        def next_frame():
            while not frames:
                data = sock.recv(65536)
                if not data:
                    raise ConnectionError("client hung up")
                frames.extend(decoder.feed(data))
            return frames.pop(0)

        try:
            ftype, _payload = next_frame()
            assert ftype == FrameType.HELLO
            sock.sendall(
                encode_json(
                    FrameType.HELLO_OK,
                    {"magic": MAGIC, "version": PROTOCOL_VERSION, "window": 64},
                )
            )
            while True:
                ftype, _payload = next_frame()
                if ftype == FrameType.BACKUP_BEGIN:
                    sock.sendall(encode_json(FrameType.CREDIT, {"frames": 64}))
                    chunks = 0
                    while True:
                        ftype, _payload = next_frame()
                        if ftype == FrameType.BACKUP_END:
                            break
                        assert ftype == FrameType.CHUNK_DATA
                        chunks += 1
                    report = {
                        "version_id": 1, "tag": "", "total_chunks": chunks,
                        "unique_chunks": chunks, "duplicate_chunks": 0,
                        "logical_bytes": 0, "stored_bytes": 0,
                    }
                    # The race, made deterministic: DONE then a stale CREDIT
                    # in one segment.
                    sock.sendall(
                        encode_json(FrameType.BACKUP_DONE, report)
                        + encode_json(FrameType.CREDIT, {"frames": 1})
                    )
                elif ftype == FrameType.STATS:
                    sock.sendall(
                        encode_json(FrameType.STATS_OK, {"versions": 1})
                    )
                else:
                    return
        except (ConnectionError, OSError, AssertionError):
            pass
        finally:
            sock.close()


class TestCreditRace:
    def test_stale_credit_does_not_poison_the_pool(self, tmp_path):
        """Regression: a CREDIT buffered behind BACKUP_DONE must not be
        replayed into the next pooled request (pre-fix this fails with
        ``ProtocolError: expected STATS_OK, got CREDIT``)."""
        server = _StaleCreditServer()
        try:
            # retries=1: a poisoned connection surfaces instead of being
            # papered over by the idempotent-retry machinery.
            with RemoteRepository(server.address, "alpha", retries=1) as repo:
                payload = os.urandom(50_000)
                report = repo.backup_blocks(
                    iter([payload]), [("f.bin", len(payload))]
                )
                assert report["version_id"] == 1
                stats = repo.stats()  # pre-fix: ProtocolError here
                assert stats["versions"] == 1
        finally:
            server.close()

    def test_backup_stats_backup_on_pooled_connection(self, tmp_path):
        """The ISSUE's failing sequence against the real daemon: one pooled
        RemoteRepository, small credit window, no retries to hide races."""
        thread = DaemonThread(str(tmp_path / "served"), window=2)
        address = thread.start()
        try:
            with RemoteRepository(address, "alpha", retries=1) as repo:
                for round_no in range(3):
                    files = synthetic_files(20 + round_no, count=2, size=120_000)
                    entries = make_tree(str(tmp_path / f"src{round_no}"), files)
                    report = repo.backup_tree(entries, tag=f"v{round_no}")
                    assert report["version_id"] == round_no + 1
                    assert repo.stats()["versions"] == round_no + 1
                    assert len(repo.versions()) == round_no + 1
        finally:
            thread.stop(drain_timeout=5)

    def test_daemon_sends_nothing_after_backup_done(self, tmp_path):
        """Server-side half of the fix: once BACKUP_END is received the
        daemon must stop granting credit, so nothing trails BACKUP_DONE."""
        from repro.client.protocol import decode_json, encode_data, encode_frame

        thread = DaemonThread(str(tmp_path / "served"), window=2)
        address = thread.start()
        conn = None
        try:
            conn = Connection(parse_address(address), timeout=5)
            payload = os.urandom(150_000)
            conn.send(
                encode_json(
                    FrameType.BACKUP_BEGIN,
                    {"repo": "t", "tag": "", "files": [["f.bin", len(payload)]]},
                )
            )
            credits = 0
            for start in range(0, len(payload), 8192):
                while credits <= 0:
                    ftype, p = conn.recv_frame()
                    assert ftype == FrameType.CREDIT
                    credits += decode_json(p)["frames"]
                conn.send(encode_data(payload[start : start + 8192]))
                credits -= 1
            conn.send(encode_frame(FrameType.BACKUP_END))
            while True:
                ftype, _p = conn.recv_frame()
                if ftype == FrameType.CREDIT:
                    continue
                assert ftype == FrameType.BACKUP_DONE
                break
            time.sleep(0.3)  # let any straggler loop callbacks run
            conn.sweep()
            assert not conn.has_buffered()
        finally:
            if conn is not None:
                conn.close()
            thread.stop(drain_timeout=5)


# ----------------------------------------------------------------------
# Daemon startup failures (regression)
# ----------------------------------------------------------------------
class TestDaemonStartup:
    def test_occupied_port_raises_promptly(self, tmp_path):
        """Pre-fix: the startup exception died on the daemon thread and
        callers hung for the full 10 s readiness timeout."""
        blocker = socket.socket()
        try:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            port = blocker.getsockname()[1]
            thread = DaemonThread(str(tmp_path / "served"), port=port)
            started = time.monotonic()
            with pytest.raises(OSError):
                thread.start()
            assert time.monotonic() - started < 5
            thread.stop()  # must be a safe no-op after a failed start
        finally:
            blocker.close()


# ----------------------------------------------------------------------
# CLI wiring (--remote)
# ----------------------------------------------------------------------
class TestRemoteCLI:
    def test_local_only_flags_rejected_with_remote(self, daemon, tmp_path, capsys):
        """Engine knobs (--workers/--compress/--history-depth) error out
        with --remote instead of being silently ignored."""
        from repro.cli import main

        _, address = daemon
        make_tree(str(tmp_path / "src"), {"f.bin": b"x" * 10})
        src = str(tmp_path / "src")
        assert main(["backup", "t", src, "--workers", "4",
                     "--remote", address]) == 1
        assert "--workers" in capsys.readouterr().err
        assert main(["backup", "t", src, "--compress",
                     "--remote", address]) == 1
        assert "--compress" in capsys.readouterr().err
        assert main(["backup", "t", src, "--history-depth", "3",
                     "--remote", address]) == 1
        assert "--history-depth" in capsys.readouterr().err


# ----------------------------------------------------------------------
# The shared multiprocess ingest plane behind the daemon
# ----------------------------------------------------------------------
class TestIngestPlane:
    """Daemon-level acceptance for the shared chunking pool: any worker
    count must be byte-identical to serial ingest,
    killed workers must respawn transparently, and a pool that exhausts
    its retry budget must roll the partial version back."""

    @pytest.mark.parametrize("workers", [1, 4], ids=["1-process", "4-process"])
    def test_pooled_daemon_matches_serial(self, workers, tmp_path):
        trees = [synthetic_files(31, count=3, size=120_000)]
        trees.append(dict(trees[0], **synthetic_files(32, count=1, size=120_000)))

        def run(label, **daemon_kwargs):
            thread = DaemonThread(str(tmp_path / label), **daemon_kwargs)
            address = thread.start()
            try:
                reports, restored = [], []
                with RemoteRepository(address, "alpha") as repo:
                    for i, files in enumerate(trees):
                        entries = make_tree(str(tmp_path / f"src-{label}-{i}"), files)
                        reports.append(repo.backup_tree(entries, tag=f"v{i}"))
                        plan, data = repo.restore(i + 1)
                        out = str(tmp_path / f"out-{label}-{i}")
                        materialize(plan, data, out)
                        restored.append(tree_bytes(out))
                return reports, restored
            finally:
                thread.stop(drain_timeout=5)

        serial = run("serial")
        pooled = run(f"pool-{workers}", ingest_workers=workers)
        assert pooled == serial
        assert serial[0][1]["duplicate_chunks"] > 0  # versions actually overlap

    def test_killed_workers_respawn_and_backup_succeeds(self, tmp_path):
        thread = DaemonThread(str(tmp_path / "served"), ingest_workers=2)
        address = thread.start()
        try:
            pids = thread.daemon.ingest_pool.worker_pids()
            assert pids  # start() warmed the pool
            for pid in pids:
                os.kill(pid, 9)
            entries = make_tree(str(tmp_path / "src"), synthetic_files(33))
            with RemoteRepository(address, "alpha") as repo:
                report = repo.backup_tree(entries, tag="survivor")
                assert report["version_id"] == 1
                plan, data = repo.restore(1)
                materialize(plan, data, str(tmp_path / "out"))
            assert tree_bytes(str(tmp_path / "out")) == tree_bytes(str(tmp_path / "src"))
            counters = thread.daemon.metrics.snapshot()["counters"]
            assert counters.get("ingest.worker_respawns", 0) >= 1
        finally:
            thread.stop(drain_timeout=5)

    def test_pool_exhaustion_rolls_back_partial_version(self, tmp_path):
        thread = DaemonThread(str(tmp_path / "served"), ingest_workers=2)
        address = thread.start()
        try:
            thread.daemon.ingest_pool.max_retries = 0
            for pid in thread.daemon.ingest_pool.worker_pids():
                os.kill(pid, 9)
            entries = make_tree(str(tmp_path / "src"), synthetic_files(34))
            with RemoteRepository(address, "alpha") as repo:
                with pytest.raises(ReproError, match="ingest|pool"):
                    repo.backup_tree(entries, tag="doomed")
                # Rollback guard: the partial version must not exist.
                assert repo.versions() == []
                # The pool rebuilt itself, so the next backup succeeds.
                report = repo.backup_tree(entries, tag="recovered")
                assert report["version_id"] == 1
                plan, data = repo.restore(1)
                materialize(plan, data, str(tmp_path / "out"))
            assert tree_bytes(str(tmp_path / "out")) == tree_bytes(str(tmp_path / "src"))
        finally:
            thread.stop(drain_timeout=5)


# ----------------------------------------------------------------------
# Request-level retry budgets
# ----------------------------------------------------------------------
class TestRetryBudget:
    def test_budget_exhaustion_raises_typed_error_and_counts(self):
        from repro.errors import RetryBudgetExceededError
        from repro.observability import MetricsRegistry

        with socket.socket() as probe:  # a port nobody is listening on
            probe.bind(("127.0.0.1", 0))
            host, port = probe.getsockname()

        metrics = MetricsRegistry()
        repo = RemoteRepository(
            (host, port), "alpha", timeout=1, retries=20, backoff=0.2,
            retry_budget_seconds=0.5, metrics=metrics,
        )
        started = time.monotonic()
        try:
            with pytest.raises(RetryBudgetExceededError) as info:
                repo.server_stats()
        finally:
            repo.close()
        # The budget, not the 20 attempts, ended the operation — quickly.
        assert time.monotonic() - started < 5
        assert isinstance(info.value, RemoteError)  # wire-taxonomy compatible
        counters = metrics.snapshot()["counters"]
        assert counters["client.retry_budget_exhausted"] == 1

    def test_attempts_still_bound_without_a_budget(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            host, port = probe.getsockname()
        repo = RemoteRepository((host, port), "alpha", timeout=1, retries=2,
                                backoff=0.05)
        try:
            with pytest.raises(RemoteError):
                repo.server_stats()
        finally:
            repo.close()

    def test_budget_error_is_failover_worthy(self):
        from repro.cluster.client import failover_worthy
        from repro.errors import RetryBudgetExceededError

        assert failover_worthy(RetryBudgetExceededError("budget spent"))
