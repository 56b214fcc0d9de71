"""Restore over the wire: one frame size, one reader, one engine thread.

* wire equivalence — a local repository, a daemon and a one-node cluster
  restore the same bytes for every knob, for versions smaller than, exactly
  and several times one restore frame; a reader written against the older
  wire (256 KiB ``recv`` into a :class:`FrameDecoder`) reads today's server;
* ``Connection.recv_frame`` — exact-size reads against a server that speaks
  the older 256 KiB frames, sends one byte at a time, sends an empty data
  frame or fails mid-stream, and the decoder fallback after a ``sweep``;
* pump lifecycle — whoever ends a restore early (client, engine, operator),
  the daemon's restore thread exits, the tenant's read lock is released and
  no more than the window is ever in flight.  Every interleaving is held at
  a hook; nothing here sleeps.
"""

from __future__ import annotations

import contextlib
import os
import random
import select
import socket
import threading

import pytest

from repro.client import RemoteRepository
from repro.client.protocol import (
    DATA_BLOCK,
    HEADER_SIZE,
    MAGIC,
    PROTOCOL_VERSION,
    RESTORE_BLOCK,
    FrameDecoder,
    FrameType,
    decode_header,
    decode_json,
    encode_data,
    encode_error,
    encode_json,
    raise_remote_error,
)
from repro.client.remote import Connection, parse_address
from repro.cluster import ClusterClient, ClusterHarness
from repro.errors import RemoteError, RestoreError, VersionNotFoundError
from repro.observability import MetricsRegistry
from repro.repository import LocalRepository, read_tree, stream_blocks
from repro.server import DaemonThread
from repro.server import session as session_module

TENANT = "tenant"
WAIT = 30.0  # upper bound on any single event wait; reaching it fails the test


# ----------------------------------------------------------------------
# Wire equivalence
# ----------------------------------------------------------------------
def write_tree(base, files):
    for rel, payload in files.items():
        path = os.path.join(base, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(payload)
    return read_tree(base)


def version_trees(root):
    """Five versions: big, churned big, under one frame, one frame, big."""
    rng = random.Random(21)
    big = {
        "a.bin": rng.randbytes(1_300_000),
        "sub/b.bin": rng.randbytes(900_000),
        "tiny.bin": b"seventeen bytes!!",
        "z.bin": rng.randbytes(700_000),
    }
    churned = dict(big, **{"sub/b.bin": rng.randbytes(900_000), "new.bin": rng.randbytes(64_000)})
    again = dict(churned, **{"a.bin": big["a.bin"][:600_000] + rng.randbytes(700_000)})
    contents = [
        big,
        churned,
        {"small.bin": rng.randbytes(300_000)},
        {"exact.bin": rng.randbytes(RESTORE_BLOCK)},
        again,
    ]
    return [write_tree(os.path.join(root, f"v{i + 1}"), c) for i, c in enumerate(contents)]


#: (version, restore keywords) — newest, oldest, one file, verified,
#: prefetched, under one frame, exactly one frame.
CASES = [
    (5, {}),
    (1, {}),
    (1, {"file": "sub/b.bin"}),
    (2, {"verify": True}),
    (2, {"workers": 4, "readahead": 8}),
    (3, {}),
    (4, {}),
]


def restore_all(repo):
    return [[bytes(block) for block in repo.restore(v, **kw)[1]] for v, kw in CASES]


def old_style_restore(address, version):
    """Read one restore the way ``recv_frame`` did before exact-size reads."""
    conn = Connection(parse_address(address), WAIT)
    decoder, blocks = FrameDecoder(), []
    try:
        conn.send(encode_json(FrameType.RESTORE_BEGIN, {"repo": TENANT, "version": version}))
        while True:
            data = conn._sock.recv(256 * 1024)
            assert data, "server closed the stream"
            for ftype, payload in decoder.feed(data):
                if ftype == FrameType.RESTORE_END:
                    assert decoder.pending == 0
                    return blocks, decode_json(payload)
                if ftype == FrameType.CHUNK_DATA:
                    blocks.append(bytes(payload))
                else:
                    assert ftype == FrameType.RESTORE_META
    finally:
        conn.close()


def test_local_daemon_and_cluster_restore_identical_bytes(tmp_path):
    trees = version_trees(str(tmp_path / "src"))
    sources = [b"".join(stream_blocks(entries)) for entries in trees]

    local = LocalRepository(str(tmp_path / "local"))
    for entries in trees:
        local.backup_tree(entries)
    expected = [b"".join(blocks) for blocks in restore_all(local)]
    assert [expected[i] for i in (0, 1, 5, 6)] == [sources[v - 1] for v in (5, 1, 3, 4)]
    with open(dict(trees[0])["sub/b.bin"], "rb") as one_file:
        assert expected[2] == one_file.read()
    assert expected[3] == expected[4] == sources[1]

    # A registry of its own: the process-wide default is shared by every test.
    with DaemonThread(str(tmp_path / "daemon"), metrics=MetricsRegistry()) as address:
        with RemoteRepository(address, TENANT) as remote:
            for entries in trees:
                remote.backup_tree(entries)
            framed = restore_all(remote)
            frames = remote.stats()["metrics"]["counters"]["restore.frames"]
        old_blocks, end = old_style_restore(address, 5)
    assert [b"".join(blocks) for blocks in framed] == expected
    # Every frame but a stream's last carries at least RESTORE_BLOCK bytes.
    for blocks in framed:
        assert all(len(block) >= RESTORE_BLOCK for block in blocks[:-1])
        assert all(len(block) < 2 * RESTORE_BLOCK for block in blocks)
    assert [len(block) for block in framed[5]] == [300_000]
    assert [len(block) for block in framed[6]] == [RESTORE_BLOCK]
    assert frames == sum(len(blocks) for blocks in framed)
    # The older reader sees the same frames the new one does.
    assert old_blocks == framed[0] and end["bytes"] == len(expected[0])

    with ClusterHarness(str(tmp_path / "cluster"), nodes=1, replicas=1) as cmap:
        with ClusterClient([cmap.nodes[0].address]) as client:
            routed = client.repo(TENANT)
            for entries in trees:
                routed.backup_tree(entries)
            assert [b"".join(blocks) for blocks in restore_all(routed)] == expected


def test_restore_without_workers_is_serial_and_the_cap_still_clamps(tmp_path):
    daemon_thread = DaemonThread(str(tmp_path / "served"), restore_workers=2)
    address = daemon_thread.start()
    try:
        seed_tenant(address, tmp_path)
        handle = _handle_of(daemon_thread, TENANT)
        serve, seen = handle.repository.restore, []

        def spy(version, **options):
            seen.append(options["workers"])
            return serve(version, **options)

        handle.repository.restore = spy
        with RemoteRepository(address, TENANT) as remote:
            for workers in (None, 1, 2, 9):
                assert b"".join(remote.restore(1, workers=workers)[1])
    finally:
        daemon_thread.stop()
    assert seen == [1, 1, 2, 2]


# ----------------------------------------------------------------------
# Connection.recv_frame against scripted servers
# ----------------------------------------------------------------------
def recv_exactly(sock, size):
    data = b""
    while len(data) < size:
        piece = sock.recv(size - len(data))
        assert piece, "client closed early"
        data += piece
    return data


def read_request(sock):
    length, ftype = decode_header(recv_exactly(sock, HEADER_SIZE))
    return ftype, recv_exactly(sock, length)


@contextlib.contextmanager
def scripted_server(script):
    """A one-connection server: answers HELLO, then runs ``script(sock)``."""
    listener = socket.create_server(("127.0.0.1", 0))
    failures = []

    def serve():
        try:
            sock, _peer = listener.accept()
            with sock:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                assert read_request(sock)[0] == FrameType.HELLO
                sock.sendall(encode_json(FrameType.HELLO_OK, {
                    "magic": MAGIC, "version": PROTOCOL_VERSION, "window": 8, "trace": "t",
                }))
                script(sock)
        except BaseException as exc:  # re-raised on the test's thread below
            failures.append(exc)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()
    finally:
        thread.join(WAIT)
        listener.close()
        assert not thread.is_alive()
        if failures:
            raise failures[0]


def send_bytewise(sock, data):
    for index in range(len(data)):
        sock.sendall(data[index : index + 1])


@pytest.mark.parametrize(
    "payload_sizes, send",
    [
        # The frames a pre-RESTORE_BLOCK server ships, an empty one among them.
        ([DATA_BLOCK] * 5 + [0, DATA_BLOCK, 1234], socket.socket.sendall),
        # The worst slicing a network can do to a stream.
        ([700, 0, 1, 300], send_bytewise),
    ],
    ids=["256KiB-frames", "one-byte-sends"],
)
def test_recv_frame_reads_any_framing(payload_sizes, send):
    rng = random.Random(9)
    payloads = [rng.randbytes(size) for size in payload_sizes]
    end = {"chunks": len(payloads), "bytes": sum(payload_sizes)}

    def script(sock):
        wire = b"".join(encode_data(p) for p in payloads)
        send(sock, wire + encode_json(FrameType.RESTORE_END, end))

    with scripted_server(script) as address:
        conn = Connection(address, WAIT)
        try:
            for payload in payloads:
                ftype, got = conn.recv_frame()
                assert ftype == FrameType.CHUNK_DATA and bytes(got) == payload
            ftype, got = conn.recv_frame()
            assert ftype == FrameType.RESTORE_END and decode_json(got) == end
            assert isinstance(got, bytes) and not conn.has_buffered()
        finally:
            conn.close()


def test_midstream_error_frame_raises_its_type():
    body = random.Random(3).randbytes(5000)

    def script(sock):
        ftype, payload = read_request(sock)
        assert ftype == FrameType.RESTORE_BEGIN and decode_json(payload)["version"] == 7
        sock.sendall(encode_json(FrameType.RESTORE_META, {"version": 7, "files": [["f", 9000]]}))
        sock.sendall(encode_data(body))
        sock.sendall(encode_error(RestoreError("container 12 is gone")))

    with scripted_server(script) as address:
        with RemoteRepository(address, TENANT) as remote:
            plan, data = remote.restore(7)
            assert plan == [("f", 9000)] and bytes(next(data)) == body
            with pytest.raises(RestoreError, match="container 12 is gone"):
                next(data)


def test_recv_frame_finishes_what_a_sweep_left_in_the_decoder():
    first, second, third = (random.Random(s).randbytes(4000) for s in (1, 2, 3))
    swept = threading.Event()

    def script(sock):
        wire = encode_data(first)
        sock.sendall(wire[:9])  # a header and four payload bytes, unasked
        assert swept.wait(WAIT)
        sock.sendall(wire[9:] + encode_data(second)[:100])
        sock.sendall(encode_data(second)[100:])
        sock.sendall(encode_data(third))

    with scripted_server(script) as address:
        conn = Connection(address, WAIT)
        try:
            assert select.select([conn._sock], [], [], WAIT)[0]
            conn.sweep()
            assert conn.has_buffered() and not conn.broken
            swept.set()
            # Decoder path while it holds bytes, exact-size path once it is dry.
            for expected in (first, second, third):
                ftype, got = conn.recv_frame()
                assert ftype == FrameType.CHUNK_DATA and bytes(got) == expected
            assert not conn.has_buffered()
        finally:
            conn.close()


def test_server_closing_mid_payload_is_a_remote_error():
    def script(sock):
        sock.sendall(encode_data(b"x" * 1000)[:500])

    with scripted_server(script) as address:
        conn = Connection(address, WAIT)
        try:
            with pytest.raises(RemoteError, match="closed the connection"):
                conn.recv_frame()
            assert conn.broken
        finally:
            conn.close()


# ----------------------------------------------------------------------
# Pump lifecycle
# ----------------------------------------------------------------------
def _handle_of(daemon_thread, tenant):
    return daemon_thread.daemon.registry.get(tenant)


class HeldRestore:
    """Stand in for a tenant's ``repository.restore``: frame-sized blobs.

    Every blob is one restore frame, so ``pulled`` counts frames the pump
    has built.  The first blob flows freely; before the second the engine
    thread waits for ``go``.  ``fail_after`` makes the engine raise instead
    of producing that blob.
    """

    FRAMES = 64

    def __init__(self, handle, fail_after=None):
        self.serve = handle.repository.restore
        self.fail_after = fail_after
        self.go = threading.Event()
        self.pump = None
        self.pulled = 0
        self.most_queued = 0
        handle.repository.restore = self

    def __call__(self, version, **options):
        plan, _data = self.serve(version, **options)
        self.pump = threading.current_thread()
        return plan, self.blobs()

    def blobs(self):
        blob = bytes(RESTORE_BLOCK)
        for index in range(self.FRAMES):
            if index == 1:
                assert self.go.wait(WAIT), "the test never released the engine"
            if index == self.fail_after:
                raise RestoreError("container 12 is gone")
            self.most_queued = max(self.most_queued, self.pump.queue.qsize())
            self.pulled += 1
            yield blob


@pytest.fixture
def parked_when_full(monkeypatch):
    """An event set when a pump finds its window full and is about to block."""
    parked = threading.Event()
    offer = session_module._RestorePump._offer

    def probing_offer(pump, item):
        if pump._window.acquire(blocking=False):
            pump._window.release()
        else:
            parked.set()
        offer(pump, item)

    monkeypatch.setattr(session_module._RestorePump, "_offer", probing_offer)
    return parked


def seed_tenant(address, tmp_path):
    entries = write_tree(str(tmp_path / "src"), {"a.bin": random.Random(4).randbytes(150_000)})
    with RemoteRepository(address, TENANT) as remote:
        remote.backup_tree(entries, tag="seed")
    return entries


def open_restore(address):
    """Begin a restore by hand; returns the connection after the first frame."""
    conn = Connection(parse_address(address), WAIT)
    conn.send(encode_json(FrameType.RESTORE_BEGIN, {"repo": TENANT, "version": 1}))
    assert conn.recv_frame()[0] == FrameType.RESTORE_META
    ftype, payload = conn.recv_frame()
    assert ftype == FrameType.CHUNK_DATA and len(payload) == RESTORE_BLOCK
    return conn


def park_the_pump(daemon_thread, held, parked):
    """Stop the event loop from writing, let the engine run: the window fills.

    Returns the event that lets the loop go on.  While the loop is held no
    window slot can come back, so once ``parked`` is set the pump stays
    blocked in its window until someone stops it or the loop resumes.
    """
    resume = threading.Event()
    daemon_thread._loop.call_soon_threadsafe(resume.wait)
    held.go.set()
    assert parked.wait(WAIT), "the pump never filled its window"
    # One frame reached the client; the window holds the rest, one is built.
    assert held.pulled <= 1 + session_module._RESTORE_WINDOW + 1
    return resume


def assert_pump_gone(held):
    held.pump.join(WAIT)
    assert not held.pump.is_alive()
    assert held.most_queued <= session_module._RESTORE_WINDOW
    assert held.pulled < HeldRestore.FRAMES  # it was stopped, it did not finish


def backup_commits_on_idle_tenant(address, handle, entries):
    """A backup needs the write lock: it commits only once the restore
    session has let go of the tenant — pump joined, read lock released."""
    with RemoteRepository(address, TENANT) as remote:
        assert remote.backup_tree(entries, tag="after")["version_id"] == 2
        # Asked on the backup's own connection, so its handler has returned.
        assert remote.stats()["active_sessions"] == 0
    assert handle.active_ops == 0 and handle.lock._readers == 0


def test_client_closing_mid_restore_frees_the_pump_and_the_lock(tmp_path, parked_when_full):
    daemon_thread = DaemonThread(str(tmp_path / "served"))
    address = daemon_thread.start()
    try:
        entries = seed_tenant(address, tmp_path)
        handle = _handle_of(daemon_thread, TENANT)
        held = HeldRestore(handle)
        conn = open_restore(address)
        resume = park_the_pump(daemon_thread, held, parked_when_full)
        conn.close()  # unread frames in flight: the server's next write fails
        resume.set()
        backup_commits_on_idle_tenant(address, handle, entries)
        assert_pump_gone(held)
    finally:
        daemon_thread.stop()


def test_engine_failing_mid_restore_is_typed_and_frees_the_lock(tmp_path):
    daemon_thread = DaemonThread(str(tmp_path / "served"))
    address = daemon_thread.start()
    try:
        entries = seed_tenant(address, tmp_path)
        handle = _handle_of(daemon_thread, TENANT)
        held = HeldRestore(handle, fail_after=3)
        conn = open_restore(address)
        held.go.set()
        try:
            sizes = []
            with pytest.raises(RestoreError, match="container 12 is gone"):
                while True:
                    ftype, payload = conn.recv_frame()
                    if ftype == FrameType.ERROR:
                        raise_remote_error(payload)
                    assert ftype == FrameType.CHUNK_DATA
                    sizes.append(len(payload))
            assert sizes == [RESTORE_BLOCK] * 2  # frames 2 and 3; the first was read
        finally:
            conn.close()
        backup_commits_on_idle_tenant(address, handle, entries)
        assert_pump_gone(held)
    finally:
        daemon_thread.stop()


@pytest.mark.parametrize("how", ["stop", "kill_node"])
def test_daemon_going_down_with_a_parked_pump_returns(tmp_path, parked_when_full, how):
    harness = ClusterHarness(str(tmp_path / "cluster"), nodes=1, replicas=1)
    node = harness.start().nodes[0]
    daemon_thread = harness.threads[node.name]
    try:
        entries = seed_tenant(node.address, tmp_path)
        handle = _handle_of(daemon_thread, TENANT)
        held = HeldRestore(handle)
        conn = open_restore(node.address)
        resume = park_the_pump(daemon_thread, held, parked_when_full)
        if how == "stop":
            going_down = threading.Thread(target=daemon_thread.stop, args=(0.05,))
        else:
            going_down = threading.Thread(target=harness.kill_node, args=(node.name,))
        going_down.start()
        resume.set()
        going_down.join(WAIT)
        assert not going_down.is_alive()
        assert_pump_gone(held)
        assert handle.active_ops == 0 and handle.lock._readers == 0
        conn.close()
    finally:
        harness.stop()
    # The repository was left in order: a new daemon on the same root takes
    # the tenant's next backup.
    with DaemonThread(node.root) as address:
        with RemoteRepository(address, TENANT) as remote:
            assert remote.backup_tree(entries, tag="after")["version_id"] == 2
            assert remote.verify(deep=True)["ok"]


def test_open_time_errors_leave_before_any_data(tmp_path):
    with DaemonThread(str(tmp_path / "served")) as address:
        seed_tenant(address, tmp_path)
        with RemoteRepository(address, TENANT) as remote:
            with pytest.raises(VersionNotFoundError):
                remote.restore(9)
            with pytest.raises(VersionNotFoundError):
                remote.restore(1, file="nope.bin")
            assert b"".join(remote.restore(1)[1])  # the connection pool is fine
