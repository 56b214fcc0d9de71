"""Restore over the wire: one frame size, one reader, one engine thread.

* wire equivalence — a local repository, a daemon and a one-node cluster
  restore the same bytes for every knob, for versions smaller than, exactly
  and several times one restore frame; a reader written against the older
  wire (256 KiB ``recv`` into a :class:`FrameDecoder`) reads today's server;
* ``Connection.recv_frame`` — exact-size reads against a server that speaks
  the older 256 KiB frames, sends one byte at a time, sends an empty data
  frame or fails mid-stream; a ``sweep`` that finds a stray byte breaks the
  connection, and the pool discards it;
* ``RESTORE_END`` — ``chunks`` counts recipe entries, whole or one file;
* pump lifecycle — whoever ends a restore early (client, engine, operator),
  the daemon's restore thread exits, the tenant's read lock is released and
  the thread never holds more than one frame's runs.  The thread is parked
  on a full socket (the client stops reading) and every interleaving is
  held at a hook; nothing here sleeps.
"""

from __future__ import annotations

import contextlib
import itertools
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
    hello_frame,
    raise_remote_error,
)
from repro.client.remote import Connection, ConnectionPool, parse_address
from repro.cluster import ClusterClient, ClusterHarness
from repro.engine.restore import restore_stream
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
    (2, {"workers": 4}),
    (3, {}),
    (4, {}),
]


def restore_all(repo):
    return [[bytes(block) for block in repo.restore(v, **kw)[1]] for v, kw in CASES]


def old_style_restore(address, version, **options):
    """Read one restore the way ``recv_frame`` did before exact-size reads."""
    conn = Connection(parse_address(address), WAIT)
    decoder, blocks = FrameDecoder(), []
    try:
        request = {"repo": TENANT, "version": version, **options}
        conn.send(encode_json(FrameType.RESTORE_BEGIN, request))
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
        # An old client's request, with the since-dropped ``readahead`` knob.
        old_blocks, end = old_style_restore(address, 5, workers=2, readahead=8)
    assert [b"".join(blocks) for blocks in framed] == expected
    # Every frame but a stream's last carries exactly RESTORE_BLOCK bytes.
    for blocks in framed:
        assert all(len(block) == RESTORE_BLOCK for block in blocks[:-1])
        assert 0 < len(blocks[-1]) <= RESTORE_BLOCK
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


def slow_reader_restore(address, version):
    """Read one restore through a 4 KiB receive buffer, 4 KiB per ``recv``."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    sock.settimeout(WAIT)
    decoder, frames = FrameDecoder(), []
    try:
        sock.connect(parse_address(address))
        sock.sendall(hello_frame())
        sock.sendall(encode_json(FrameType.RESTORE_BEGIN, {"repo": TENANT, "version": version}))
        while not frames or frames[-1][0] != FrameType.RESTORE_END:
            data = sock.recv(4096)
            assert data, "server closed the stream"
            frames.extend((ftype, bytes(payload)) for ftype, payload in decoder.feed(data))
    finally:
        sock.close()
    assert [ftype for ftype, _ in frames[:2]] == [FrameType.HELLO_OK, FrameType.RESTORE_META]
    assert {ftype for ftype, _ in frames[2:-1]} == {FrameType.CHUNK_DATA}
    return decode_json(frames[1][1]), [payload for _, payload in frames[2:-1]]


def test_a_file_plan_larger_than_the_socket_buffers_reaches_a_slow_reader_intact(
    tmp_path, monkeypatch
):
    """``RESTORE_META`` is still leaving the loop's buffer while the client
    reads slowly; the pump gets the socket only once the loop has sent it
    all, so their bytes never interleave.  A small kernel send buffer makes
    every write partial, so ``drain`` would return with bytes still held."""
    send_restore, buffered = session_module._Session._send_restore, []

    async def probed_send_restore(session, handle, version, pump):
        sock = session.writer.get_extra_info("socket")
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        attach = pump.attach

        def probed_attach(sock):  # what the loop still held at the hand-over
            buffered.append(session.writer.transport.get_write_buffer_size())
            attach(sock)

        pump.attach = probed_attach
        await send_restore(session, handle, version, pump)

    monkeypatch.setattr(session_module._Session, "_send_restore", probed_send_restore)
    plan = [(f"{'nested/' * 40}{index:05d}.bin", 64) for index in range(30_000)]
    data = random.Random(41).randbytes(64 * len(plan))
    with DaemonThread(str(tmp_path / "served"), metrics=MetricsRegistry()) as address:
        with RemoteRepository(address, TENANT) as remote:
            remote.backup_blocks([data], plan)
        for _ in range(3):
            meta, blocks = slow_reader_restore(address, 1)
            assert len(encode_json(FrameType.RESTORE_META, meta)) > 8 << 20
            assert [tuple(row) for row in meta["files"]] == plan
            assert b"".join(blocks) == data
            assert [len(block) for block in blocks[:-1]] == [RESTORE_BLOCK] * (len(blocks) - 1)
    assert buffered == [0, 0, 0]


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


def test_restore_end_counts_recipe_entries_not_runs(tmp_path):
    rng = random.Random(31)
    sizes = {"a.bin": 400_000, "b.bin": 300_000, "c.bin": 200_000}
    first = write_tree(str(tmp_path / "v1"), {rel: rng.randbytes(n) for rel, n in sizes.items()})
    second = write_tree(str(tmp_path / "v2"), {"d.bin": rng.randbytes(100_000)})
    daemon_thread = DaemonThread(str(tmp_path / "served"))
    address = daemon_thread.start()
    try:
        with RemoteRepository(address, TENANT) as remote:
            remote.backup_tree(first)
            remote.backup_tree(second)  # version 1's chunks go archival
        repository = _handle_of(daemon_thread, TENANT).repository
        store = repository._open()
        rows = [entry.size for entry in store.recipes.peek(1).entries]
        # Archival runs merge, so counting runs would not give the entries.
        assert len(list(restore_stream(store, 1))) < len(rows)
        assert old_style_restore(address, 1)[1]["chunks"] == len(rows)

        offset = 0
        for rel, size in repository.restore_plan(1):
            if rel == "b.bin":
                break
            offset += size
        edges = list(itertools.accumulate(rows, initial=0))
        covering = sum(
            1 for lo, hi in zip(edges, edges[1:])
            if lo < offset + sizes["b.bin"] and hi > offset
        )
        assert old_style_restore(address, 1, file="b.bin")[1]["chunks"] == covering
    finally:
        daemon_thread.stop()


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
def scripted_server(script, connections=1):
    """A server of ``connections`` connections, one after another: each
    answers HELLO, then runs ``script(sock)``."""
    listener = socket.create_server(("127.0.0.1", 0))
    failures = []

    def serve():
        try:
            for _ in range(connections):
                sock, _peer = listener.accept()
                with sock:
                    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                    assert read_request(sock)[0] == FrameType.HELLO
                    sock.sendall(encode_json(FrameType.HELLO_OK, {
                        "magic": MAGIC, "version": PROTOCOL_VERSION, "trace": "t",
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
            assert isinstance(got, bytes)
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


def test_a_stray_byte_breaks_an_idle_connection_and_the_pool_discards_it():
    served = []

    def script(sock):
        served.append(sock)
        if len(served) == 1:
            assert read_request(sock)[0] == FrameType.VERSIONS
            reply = encode_json(FrameType.VERSIONS_OK, {"versions": []})
            sock.sendall(reply + encode_data(b"late"))  # a frame nobody asked for

    with scripted_server(script, connections=2) as address:
        metrics = MetricsRegistry()
        pool = ConnectionPool(address, WAIT, metrics=metrics)
        try:
            conn = pool.acquire()
            conn.send(encode_json(FrameType.VERSIONS, {"repo": TENANT}))
            assert conn.recv_frame()[0] == FrameType.VERSIONS_OK
            pool.release(conn)  # idle as far as the reply goes
            assert select.select([conn._sock], [], [], WAIT)[0]
            fresh = pool.acquire()
            assert fresh is not conn and conn.broken
            assert metrics.snapshot()["counters"]["client.pooled_discards_total"] == 1
            pool.release(fresh)
        finally:
            pool.close()


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
    """Stand in for a tenant's ``repository.restore``: 64 MiB of small runs.

    A run is a sixteenth of a frame, so every frame is cut from many runs.
    The first frame's runs flow freely; before the next run the engine
    thread waits for ``go``.  ``fail_after`` makes the engine raise instead
    of producing that run.  ``most_held`` is the most bytes the pump ever
    held pulled but not yet sent.
    """

    RUN = RESTORE_BLOCK // 16
    RUNS = 64 * 16

    def __init__(self, handle, fail_after=None):
        self.serve = handle.repository.restore
        self.fail_after = fail_after
        self.go = threading.Event()
        self.pump = None
        self.pulled = 0
        self.most_held = 0
        handle.repository.restore = self

    def __call__(self, version, **options):
        plan, _data = self.serve(version, **options)
        self.pump = threading.current_thread()
        return plan, self.runs()

    def runs(self):
        run = bytes(self.RUN)
        for index in range(self.RUNS):
            if index * self.RUN == RESTORE_BLOCK:
                assert self.go.wait(WAIT), "the test never released the engine"
            if index == self.fail_after:
                raise RestoreError("container 12 is gone")
            self.most_held = max(self.most_held, index * self.RUN - self.pump.sent)
            self.pulled += 1
            yield run


@pytest.fixture
def parked_on_full_socket(monkeypatch):
    """An event set when a pump finds the socket full and waits on it."""
    parked = threading.Event()
    attach = session_module._RestorePump.attach

    class ProbedPoller:
        def __init__(self, inner):
            self.inner = inner

        def register(self, *args):
            self.inner.register(*args)

        def poll(self, *args):
            parked.set()
            return self.inner.poll(*args)

    def probing_attach(pump, sock):
        pump._poller = ProbedPoller(pump._poller)
        attach(pump, sock)

    monkeypatch.setattr(session_module._RestorePump, "attach", probing_attach)
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


def park_the_pump(held, parked):
    """Let the engine run while the client reads nothing: the socket fills.

    Once ``parked`` is set the pump waits for a writable socket, which it
    gets only if the client reads or someone stops the pump.
    """
    held.go.set()
    assert parked.wait(WAIT), "the pump never found the socket full"
    assert held.pulled < HeldRestore.RUNS


def assert_pump_gone(held):
    held.pump.join(WAIT)
    assert not held.pump.is_alive()
    assert held.pump._sock is None  # its dup of the connection is closed
    assert held.most_held < RESTORE_BLOCK  # never more than one frame's runs
    assert held.pulled < HeldRestore.RUNS  # it was stopped, it did not finish


def backup_commits_on_idle_tenant(address, handle, entries):
    """A backup needs the write lock: it commits only once the restore
    session has let go of the tenant — pump joined, read lock released."""
    with RemoteRepository(address, TENANT) as remote:
        assert remote.backup_tree(entries, tag="after")["version_id"] == 2
        # Asked on the backup's own connection, so its handler has returned.
        assert remote.stats()["active_sessions"] == 0
    assert handle.active_ops == 0 and handle.lock._readers == 0


def test_client_closing_mid_restore_frees_the_pump_and_the_lock(tmp_path, parked_on_full_socket):
    daemon_thread = DaemonThread(str(tmp_path / "served"))
    address = daemon_thread.start()
    try:
        entries = seed_tenant(address, tmp_path)
        handle = _handle_of(daemon_thread, TENANT)
        held = HeldRestore(handle)
        conn = open_restore(address)
        park_the_pump(held, parked_on_full_socket)
        conn.close()  # unread frames in flight: the parked send fails
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
        held = HeldRestore(handle, fail_after=3 * 16 + 5)  # inside the fourth frame
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
def test_daemon_going_down_with_a_parked_pump_returns(tmp_path, parked_on_full_socket, how):
    harness = ClusterHarness(str(tmp_path / "cluster"), nodes=1, replicas=1)
    node = harness.start().nodes[0]
    daemon_thread = harness.threads[node.name]
    try:
        entries = seed_tenant(node.address, tmp_path)
        handle = _handle_of(daemon_thread, TENANT)
        held = HeldRestore(handle)
        conn = open_restore(node.address)
        park_the_pump(held, parked_on_full_socket)
        if how == "stop":
            going_down = threading.Thread(target=daemon_thread.stop, args=(0.05,))
        else:
            going_down = threading.Thread(target=harness.kill_node, args=(node.name,))
        going_down.start()
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
