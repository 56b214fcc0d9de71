"""Integration tests for the backup daemon + remote client + CLI wiring.

Every test runs a real :class:`BackupDaemon` on a background event-loop
thread (port 0 → a free port), with real sockets and the real engine
underneath — these are the acceptance tests for the networked service:
byte-identical restores, local/remote equivalence, multi-tenant
concurrency, writer-lock serialisation and crash rollback.
"""

import asyncio
import itertools
import os
import socket
import threading
import time

import pytest

from repro.client import ConnectionPool, RemoteRepository
from repro.client.protocol import DATA_BLOCK, FrameType, encode_frame, encode_json
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
from repro.observability import MetricsRegistry
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
# Flow control: TCP's window bounds what a backup holds on the server
# ----------------------------------------------------------------------
class TestIngestMemory:
    def test_a_parked_engine_holds_only_the_frames_it_took(self, tmp_path):
        """With the engine parked after three blocks, a client pushing
        20 MiB has had exactly three frames read off its socket: the rest
        wait in TCP buffers and the client's blocked send, not in the
        daemon.  The backup then completes byte for byte."""
        metrics = MetricsRegistry()
        thread = DaemonThread(str(tmp_path / "served"), metrics=metrics)
        address = thread.start()
        try:
            handle = thread.daemon.registry.get("alpha", create=True)
            backup = handle.repository.backup_blocks
            parked, release = threading.Event(), threading.Event()

            def stand_in(blocks, plan, tag=""):
                blocks = iter(blocks)
                taken = [next(blocks) for _ in range(3)]
                parked.set()
                assert release.wait(30)
                return backup(itertools.chain(taken, blocks), plan, tag)

            handle.repository.backup_blocks = stand_in
            data = os.urandom(20 << 20)
            outcome = {}

            def client():
                try:
                    with RemoteRepository(address, "alpha", timeout=60) as repo:
                        outcome["report"] = repo.backup_blocks(
                            [data], [("big.bin", len(data))], tag="big"
                        )
                except BaseException as exc:  # noqa: BLE001 - re-raised below
                    outcome["error"] = exc

            sender = threading.Thread(target=client, daemon=True)
            sender.start()
            assert parked.wait(30)
            time.sleep(0.5)  # time enough for any read-ahead to happen
            assert metrics.counter("server.ingest_bytes").value == 3 * DATA_BLOCK
            release.set()
            sender.join(60)
            assert not sender.is_alive()
            if "error" in outcome:
                raise outcome["error"]
            assert outcome["report"]["logical_bytes"] == len(data)
            with RemoteRepository(address, "alpha") as repo:
                assert b"".join(repo.restore(1)[1]) == data
        finally:
            release.set()
            thread.stop(drain_timeout=5)


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
            # The server rolled back: a failed first backup leaves no tenant.
            with pytest.raises(RepositoryNotFoundError):
                repo.versions()
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
        started, killed = threading.Event(), threading.Event()

        def stalled_blocks():
            yield open(entries[0][1], "rb").read(65536)
            started.set()
            yield open(entries[0][1], "rb").read()
            killed.wait(30)  # stall until the kill has severed us

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
        killed.set()
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
        # Restart over the same root: the failed first backup left no
        # tenant, and the repository takes a clean backup as version 1.
        thread2 = DaemonThread(root)
        address2 = thread2.start()
        try:
            with RemoteRepository(address2, "alpha") as repo:
                with pytest.raises(RepositoryNotFoundError):
                    repo.versions()
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

    def test_a_connection_while_draining_gets_no_session(self, daemon):
        """A session that started after shutdown took its list would be
        neither awaited nor cancelled: the draining daemon refuses it at
        the handshake, even for a read."""
        thread, address = daemon
        thread.daemon.draining = True
        try:
            with RemoteRepository(address, "alpha", retries=1) as repo:
                with pytest.raises(ServerDrainingError):
                    repo.versions()
            assert thread.daemon.server_stats()["requests"] == {}
        finally:
            thread.daemon.draining = False

    def test_a_stopped_daemon_leaves_no_task(self, tmp_path):
        """``stop`` ends what is still pending on the loop while the loop
        runs, so no ``finally`` (a session's ``writer.close()``) runs later
        on a closed loop."""
        thread = DaemonThread(str(tmp_path / "served"))
        thread.start()
        ended = []

        async def late():
            try:
                await asyncio.Event().wait()
            finally:
                ended.append(asyncio.get_running_loop().is_closed())

        pending = asyncio.run_coroutine_threadsafe(late(), thread._loop)
        thread.stop()
        assert ended == [False]
        assert pending.cancelled()


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
            conn.send(encode_frame(FrameType.BACKUP_READY))
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

    def test_retries_reach_a_late_server(self, tmp_path, retry_clock):
        """Idempotent requests retry with backoff until the daemon answers."""
        thread = DaemonThread(str(tmp_path / "served"))
        address = thread.start()
        host, port = parse_address(address)
        thread.stop(drain_timeout=0)  # daemon gone; port free again

        repo = RemoteRepository((host, port), "alpha", timeout=2, retries=4)
        late = {}

        def start_late(_pause):
            if "thread" not in late:
                late["thread"] = DaemonThread(str(tmp_path / "served"), port=port)
                late["thread"].start()

        retry_clock.on_sleep = start_late  # the daemon comes up during the first backoff
        try:
            doc = repo.server_stats()
            assert "repos" in doc
            assert retry_clock.sleeps == [0.1]
        finally:
            repo.close()
            if "thread" in late:
                late["thread"].stop(drain_timeout=0)


# ----------------------------------------------------------------------
# A stray frame after a reply must not poison a pooled connection
# ----------------------------------------------------------------------
class _StrayFrameServer:
    """A scripted protocol speaker that writes a stray frame *after* BACKUP_DONE.

    Reproduces, deterministically, the state a race in the daemon once left
    behind (a late flow-control frame behind the completion frame).  The
    stray frame arrives in the same TCP segment as BACKUP_DONE, so it is
    guaranteed to sit in the client connection's frame buffer when
    ``backup_blocks`` returns — exactly the state that would poison the
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
        # A close alone does not wake a thread blocked in accept().
        self._listener.shutdown(socket.SHUT_RDWR)
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
                    {"magic": MAGIC, "version": PROTOCOL_VERSION},
                )
            )
            while True:
                ftype, _payload = next_frame()
                if ftype == FrameType.BACKUP_BEGIN:
                    sock.sendall(encode_frame(FrameType.BACKUP_READY))
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
                    # DONE then a stray frame, in one segment.
                    sock.sendall(
                        encode_json(FrameType.BACKUP_DONE, report)
                        + encode_frame(FrameType.BACKUP_READY)
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


class TestStrayFrameAfterReply:
    def test_stray_frame_does_not_poison_the_pool(self, tmp_path):
        """A frame buffered behind BACKUP_DONE must not be replayed into the
        next pooled request (without the pool's drain-verify this fails
        with ``ProtocolError: expected STATS_OK, got BACKUP_READY``)."""
        server = _StrayFrameServer()
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
        """Backup, stats, backup against the real daemon on one pooled
        RemoteRepository, no retries to hide races."""
        thread = DaemonThread(str(tmp_path / "served"))
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
        """Between BACKUP_BEGIN and BACKUP_DONE the daemon sends exactly one
        frame, BACKUP_READY, and nothing trails BACKUP_DONE."""
        from repro.client.protocol import encode_data

        thread = DaemonThread(str(tmp_path / "served"))
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
            assert conn.recv_frame() == (FrameType.BACKUP_READY, b"")
            for start in range(0, len(payload), 8192):
                conn.send(encode_data(payload[start : start + 8192]))
            conn.send(encode_frame(FrameType.BACKUP_END))
            ftype, _p = conn.recv_frame()
            assert ftype == FrameType.BACKUP_DONE
            time.sleep(0.3)  # let any straggler loop callbacks run
            conn.sweep()
            assert not conn.broken  # nothing arrived after BACKUP_DONE
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

    @pytest.mark.parametrize("depth", [0, -1])
    def test_history_depth_below_one_is_refused_at_construction(self, tmp_path, depth):
        """It used to start, then fail every new tenant's first backup."""
        with pytest.raises(ReproError, match="history_depth"):
            DaemonThread(str(tmp_path / "served"), history_depth=depth)
        assert not (tmp_path / "served").exists()

    @pytest.mark.parametrize("command", [
        ["backup", "repo", "src"],
        ["serve", "127.0.0.1:0", "--root", "r"],
    ])
    def test_history_depth_flag_must_be_positive(self, command, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(command + ["--history-depth", "0"])
        assert exit_info.value.code == 2
        assert "--history-depth" in capsys.readouterr().err
        assert build_parser().parse_args(command + ["--history-depth", "2"]).history_depth == 2


# ----------------------------------------------------------------------
# CLI wiring (--remote)
# ----------------------------------------------------------------------
class TestRemoteCLI:
    def test_local_only_flags_rejected_with_remote(self, daemon, tmp_path, capsys):
        """Engine knobs (--compress/--history-depth) error out with
        --remote instead of being silently ignored."""
        from repro.cli import main

        _, address = daemon
        make_tree(str(tmp_path / "src"), {"f.bin": b"x" * 10})
        src = str(tmp_path / "src")
        assert main(["backup", "t", src, "--compress",
                     "--remote", address]) == 1
        assert "--compress" in capsys.readouterr().err
        assert main(["backup", "t", src, "--history-depth", "3",
                     "--remote", address]) == 1
        assert "--history-depth" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Request-level retry budgets
# ----------------------------------------------------------------------
class TestRetryBudget:
    def test_budget_exhaustion_raises_typed_error_and_counts(self, retry_clock):
        from repro.errors import RetryBudgetExceededError
        from repro.observability import MetricsRegistry

        with socket.socket() as probe:  # a port nobody is listening on
            probe.bind(("127.0.0.1", 0))
            host, port = probe.getsockname()

        metrics = MetricsRegistry()
        repo = RemoteRepository(
            (host, port), "alpha", timeout=1, retries=20,
            retry_budget_seconds=0.5, metrics=metrics,
        )
        try:
            with pytest.raises(RetryBudgetExceededError) as info:
                repo.server_stats()
        finally:
            repo.close()
        # The budget, not the 20 attempts, ended the operation: three tries
        # 0.1 and 0.2 s apart, and the next 0.4 s pause would pass 0.5 s.
        assert retry_clock.sleeps == [0.1, 0.2]
        assert retry_clock.now + 0.4 >= 0.5 > retry_clock.now
        assert isinstance(info.value, RemoteError)  # wire-taxonomy compatible
        counters = metrics.snapshot()["counters"]
        assert counters["client.retry_budget_exhausted"] == 1
        assert counters["client.retries_total"] == 2

    def test_attempts_still_bound_without_a_budget(self, retry_clock):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            host, port = probe.getsockname()
        repo = RemoteRepository((host, port), "alpha", timeout=1, retries=2)
        try:
            with pytest.raises(RemoteError, match="after 2 attempts"):
                repo.server_stats()
        finally:
            repo.close()
        assert retry_clock.sleeps == [0.1]

    def test_budget_error_is_failover_worthy(self):
        from repro.client.retry import transport_failure
        from repro.errors import RetryBudgetExceededError

        assert transport_failure(RetryBudgetExceededError("budget spent"))


# ----------------------------------------------------------------------
# A peer that hangs up mid-request
# ----------------------------------------------------------------------
class _HangUpServer:
    """A scripted daemon: connection ``i`` is answered with ``replies[i]``,
    or hung up on (``None``) once its one request has been read.  It
    records each request's frame type."""

    def __init__(self, replies):
        self.replies = list(replies)
        self.requests = []
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.address = self.listener.getsockname()
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        from repro.client.protocol import MAGIC, PROTOCOL_VERSION, FrameDecoder

        for reply in self.replies:
            try:
                sock, _peer = self.listener.accept()
            except OSError:
                return
            decoder, frames = FrameDecoder(), []

            def next_frame():
                while not frames:
                    data = sock.recv(65536)
                    if not data:
                        raise ConnectionError("client hung up")
                    frames.extend(decoder.feed(data))
                return frames.pop(0)

            with sock:
                assert next_frame()[0] == FrameType.HELLO
                sock.sendall(encode_json(
                    FrameType.HELLO_OK, {"magic": MAGIC, "version": PROTOCOL_VERSION},
                ))
                self.requests.append(next_frame()[0])
                if reply is not None:
                    sock.sendall(reply)
                    while sock.recv(65536):  # until the client closes
                        pass

    def close(self):
        self.listener.shutdown(socket.SHUT_RDWR)
        self.listener.close()
        self.thread.join(timeout=5)


class TestPeerClose:
    def test_a_read_is_retried_on_a_new_connection(self, retry_clock):
        """``server closed the connection`` is transport trouble: the second
        connection answers the retried read."""
        server = _HangUpServer(
            [None, encode_json(FrameType.VERSIONS_OK, {"versions": [{"version_id": 1}]})]
        )
        repo = RemoteRepository(server.address, "alpha", timeout=5, retries=3)
        try:
            assert repo.versions() == [{"version_id": 1}]
        finally:
            repo.close()
            server.close()
        assert server.requests == [FrameType.VERSIONS, FrameType.VERSIONS]
        assert retry_clock.sleeps == [0.1]

    def test_a_delete_is_sent_once(self, retry_clock):
        server = _HangUpServer([None, encode_json(FrameType.DELETE_OK, {})])
        repo = RemoteRepository(server.address, "alpha", timeout=5, retries=3)
        try:
            with pytest.raises(RemoteError, match="closed the connection"):
                repo.delete_oldest()
        finally:
            repo.close()
            server.close()
        assert server.requests == [FrameType.DELETE_OLDEST]
        assert retry_clock.sleeps == []
