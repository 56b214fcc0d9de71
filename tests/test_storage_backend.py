"""Storage-backend protocol contract: file, SQLite and object-store.

One parametrized suite drives every backend through the same surface —
immutable ``put``, mutable ``put_meta``, ranged ``get_range``, listing,
rename, delete — so a new backend can't drift from the contract the
engine stores and the replication layer rely on.  Also covered here:

* the fake-S3 server's dialect (ranged GETs, conflict PUTs, digests,
  the request log the CI smoke job asserts parallelism from);
* repo-spec parsing (:class:`RepoLocation`) including tiered
  ``?archive=`` specs and per-tenant ``child()`` composition;
* the :class:`ContainerStore` ID-allocation contract (``next_id`` /
  ``reserve_ids`` / resume-above-highest) across every store kind.
"""

import threading
import time
import types

import pytest

from repro.chunking.stream import Chunk, synthetic_fingerprint
from repro.errors import ObjectMissingError, StorageError, UnknownChunkError
from repro.storage.backend import (
    FileBackend,
    RepoLocation,
    SQLiteBackend,
    StorageBackend,
    open_backend,
    parse_repo_spec,
    validate_object_name,
)
from repro.storage.container_store import (
    BackendContainerStore,
    FileContainerStore,
    MemoryContainerStore,
)
from repro.storage import fake_s3
from repro.storage.fake_s3 import FakeS3Server
from repro.storage.object_store import ObjectStoreBackend


@pytest.fixture(scope="module")
def s3_server():
    with FakeS3Server("127.0.0.1") as server:
        yield server


@pytest.fixture(params=["file", "sqlite", "s3"])
def backend(request, tmp_path, s3_server):
    if request.param == "file":
        b = FileBackend(str(tmp_path / "objs"))
    elif request.param == "sqlite":
        b = SQLiteBackend(str(tmp_path / "objs.db"))
    else:
        # A fresh prefix per test keeps the shared server's bucket clean.
        b = ObjectStoreBackend(s3_server.url("bucket", f"t-{request.node.name}"))
    yield b
    b.close()


class TestBackendContract:
    def test_satisfies_protocol(self, backend):
        assert isinstance(backend, StorageBackend)

    def test_put_get_round_trip(self, backend):
        backend.put("a/blob", b"payload")
        assert backend.get("a/blob") == b"payload"
        assert backend.exists("a/blob")
        assert backend.size("a/blob") == len(b"payload")

    def test_put_refuses_overwrite(self, backend):
        backend.put("x", b"one")
        with pytest.raises(StorageError):
            backend.put("x", b"two")
        assert backend.get("x") == b"one"

    def test_put_meta_overwrites(self, backend):
        backend.put_meta("m", b"one")
        backend.put_meta("m", b"two")
        assert backend.get("m") == b"two"

    def test_get_missing_raises(self, backend):
        with pytest.raises(ObjectMissingError):
            backend.get("nope")

    def test_get_range(self, backend):
        backend.put("r", b"0123456789")
        assert backend.get_range("r", 2, 3) == b"234"
        assert backend.get_range("r", 0, 10) == b"0123456789"
        assert backend.get_range("r", 8, 100) == b"89"  # clipped at end
        assert backend.get_range("r", 0, 0) == b""

    def test_get_range_missing_raises(self, backend):
        with pytest.raises(ObjectMissingError):
            backend.get_range("nope", 0, 4)

    def test_digest_is_sha256_hex(self, backend):
        import hashlib

        backend.put("d", b"digest me")
        assert backend.digest("d") == hashlib.sha256(b"digest me").hexdigest()

    def test_delete(self, backend):
        backend.put("gone", b"x")
        backend.delete("gone")
        assert not backend.exists("gone")
        with pytest.raises(ObjectMissingError):
            backend.delete("gone")

    def test_list_with_prefix(self, backend):
        backend.put("p/one", b"1")
        backend.put("p/two", b"2")
        backend.put("q/other", b"3")
        assert backend.list("p/") == ["p/one", "p/two"]
        listing = backend.list()
        assert {"p/one", "p/two", "q/other"} <= set(listing)

    def test_list_prefix_is_a_string_prefix_at_any_depth(self, backend):
        for name in ("check.json", "check-a.bin", "checks/deep/x", "chalk", "p/check", "p/q/r"):
            backend.put(name, b"-")
        assert backend.list("check") == ["check-a.bin", "check.json", "checks/deep/x"]
        assert backend.list("p/") == ["p/check", "p/q/r"]
        assert backend.list("p/q") == ["p/q/r"]
        assert backend.list("p/c") == ["p/check"]
        assert backend.list("nothing/here") == []

    def test_rename_replaces(self, backend):
        backend.put_meta("old", b"new-bytes")
        backend.put_meta("target", b"stale")
        backend.rename("old", "target")
        assert backend.get("target") == b"new-bytes"
        assert not backend.exists("old")

    def test_rename_missing_raises(self, backend):
        with pytest.raises(ObjectMissingError):
            backend.rename("absent", "anywhere")

    def test_threaded_reads(self, backend):
        backend.put("shared", bytes(range(256)) * 64)
        results, errors = [], []

        def read(offset):
            try:
                results.append(backend.get_range("shared", offset, 128))
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=read, args=(i * 128,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert sorted(results) == sorted(
            (bytes(range(256)) * 64)[i * 128 : i * 128 + 128] for i in range(8)
        )


class TestObjectNames:
    @pytest.mark.parametrize(
        "bad", ["", "/abs", "a/../b", "..", "a\x00b", "a\nb", "a\x1fb", "a\x7fb", "con\\tainers"]
    )
    def test_rejected(self, bad):
        with pytest.raises(StorageError):
            validate_object_name(bad)

    def test_accepted(self):
        validate_object_name("containers/container-00000001.hdsc")
        validate_object_name("checkpoint.json")


class TestFakeS3Dialect:
    def test_conflicting_put_is_412(self, s3_server):
        backend = ObjectStoreBackend(s3_server.url("bucket", "dialect-conflict"))
        backend.put("obj", b"first")
        with pytest.raises(StorageError):
            backend.put("obj", b"second")
        backend.close()

    def test_ranged_get_records(self, s3_server):
        backend = ObjectStoreBackend(s3_server.url("bucket", "dialect-ranged"))
        backend.put("obj", b"0123456789")
        s3_server.clear_log()
        assert backend.get_range("obj", 4, 3) == b"456"
        records = s3_server.ranged_get_records()
        assert len(records) == 1
        assert records[0].range_header == "bytes=4-6"
        assert records[0].status == 206
        backend.close()

    def test_parallel_ranged_gets_tracked(self, s3_server, monkeypatch):
        backend = ObjectStoreBackend(s3_server.url("bucket", "dialect-parallel"))
        backend.put("obj", b"x" * 4096)
        s3_server.clear_log()
        # The handler's latency sleep becomes a barrier: no GET is answered
        # before all four are in flight, whatever the thread timing.
        barrier = threading.Barrier(4, timeout=30)
        clock = types.SimpleNamespace(monotonic=time.monotonic, sleep=lambda _s: barrier.wait())
        monkeypatch.setattr(fake_s3, "time", clock)
        s3_server.latency = 1.0
        try:
            threads = [
                threading.Thread(target=backend.get_range, args=("obj", i * 256, 256))
                for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            s3_server.latency = 0.0
        assert len(s3_server.ranged_get_records()) == 4
        assert s3_server.max_concurrent_ranged_gets() == 4
        backend.close()

    def test_suffix_and_invalid_ranges(self, s3_server):
        backend = ObjectStoreBackend(s3_server.url("bucket", "dialect-edges"))
        backend.put("obj", b"0123456789")
        # Past-the-end start clips to empty rather than erroring.
        assert backend.get_range("obj", 50, 10) == b""
        backend.close()


class TestRepoLocation:
    def test_bare_path_is_file(self, tmp_path):
        loc = parse_repo_spec(str(tmp_path / "repo"))
        assert loc.scheme == "file"
        assert loc.is_file
        assert loc.archive_url is None

    def test_file_url(self, tmp_path):
        loc = parse_repo_spec(f"file://{tmp_path}/repo")
        assert loc.scheme == "file"
        assert loc.path == str(tmp_path / "repo")

    def test_sqlite_url(self, tmp_path):
        loc = parse_repo_spec(f"sqlite://{tmp_path}/repo.db")
        assert loc.scheme == "sqlite"
        assert not loc.is_file

    def test_s3_url(self):
        loc = parse_repo_spec("s3://127.0.0.1:9000/bucket/pre/fix")
        assert loc.scheme == "s3"

    def test_archive_option(self, tmp_path):
        loc = parse_repo_spec(f"file://{tmp_path}/hot?archive=sqlite://{tmp_path}/cold.db")
        assert loc.scheme == "file"
        assert loc.archive_url == f"sqlite://{tmp_path}/cold.db"
        assert not loc.is_file  # tiered repos never take the plain-file path

    def test_unknown_scheme_rejected(self):
        with pytest.raises(StorageError):
            parse_repo_spec("ftp://host/path")

    def test_unknown_param_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            parse_repo_spec(f"file://{tmp_path}/repo?bogus=1")

    def test_child_specs(self, tmp_path):
        assert RepoLocation(str(tmp_path)).child("t1") == str(tmp_path / "t1")
        assert (
            RepoLocation(f"sqlite://{tmp_path}/tenants").child("t1")
            == f"sqlite://{tmp_path}/tenants/t1.db"
        )
        assert (
            RepoLocation("s3://h:1/bucket/root").child("t1")
            == "s3://h:1/bucket/root/t1"
        )
        tiered = RepoLocation(f"file://{tmp_path}/hot?archive=s3://h:1/b/cold")
        child = parse_repo_spec(tiered.child("t1"))
        assert child.path == str(tmp_path / "hot" / "t1")
        assert child.archive_url == "s3://h:1/b/cold/t1"

    def test_canonical_url_identity(self, tmp_path):
        bare = parse_repo_spec(str(tmp_path / "r"))
        url = parse_repo_spec(f"file://{tmp_path}/r")
        assert bare.canonical_url() == url.canonical_url()

    def test_open_backend_round_trip(self, tmp_path):
        b = open_backend(f"sqlite://{tmp_path}/x.db")
        try:
            b.put("k", b"v")
            assert b.get("k") == b"v"
        finally:
            b.close()


# ----------------------------------------------------------------------
# ContainerStore ID-allocation contract (reserve_ids / next_id resume)
# ----------------------------------------------------------------------
def _fill(container, tokens, size=100):
    for t in tokens:
        container.add(Chunk(synthetic_fingerprint(t), size, bytes([t % 256]) * size))


@pytest.fixture(params=["memory", "file", "sqlite", "s3"])
def id_store_factory(request, tmp_path, s3_server):
    """A factory producing stores over the *same* persistent location."""
    if request.param == "memory":
        store = MemoryContainerStore(capacity=10_000)
        return lambda: store  # memory has no reopen; same instance
    if request.param == "file":
        return lambda: FileContainerStore(str(tmp_path / "c"), capacity=10_000)
    if request.param == "sqlite":
        return lambda: BackendContainerStore(
            SQLiteBackend(str(tmp_path / "c.db")), capacity=10_000
        )
    url = s3_server.url("bucket", f"ids-{request.node.name}")
    return lambda: BackendContainerStore(ObjectStoreBackend(url), capacity=10_000)


class TestIdAllocationContract:
    def test_allocation_starts_at_one_and_is_monotonic(self, id_store_factory):
        store = id_store_factory()
        assert store.next_id == 1
        assert [store.allocate().container_id for _ in range(3)] == [1, 2, 3]
        assert store.next_id == 4

    def test_reserve_ids_moves_forward_only(self, id_store_factory):
        store = id_store_factory()
        store.reserve_ids(10)
        assert store.next_id == 11
        store.reserve_ids(5)  # never backwards
        assert store.next_id == 11
        assert store.allocate().container_id == 11

    def test_reopen_resumes_above_highest_stored_id(self, id_store_factory):
        store = id_store_factory()
        for _ in range(3):
            c = store.allocate()
            _fill(c, [c.container_id])
            store.write(c)
        reopened = id_store_factory()
        assert reopened.next_id >= 4
        c = reopened.allocate()
        _fill(c, [99])
        reopened.write(c)  # must not collide with an existing object

    def test_reserve_then_reopen_keeps_stored_ids_safe(self, id_store_factory):
        store = id_store_factory()
        store.reserve_ids(7)
        c = store.allocate()
        assert c.container_id == 8
        _fill(c, [8])
        store.write(c)
        reopened = id_store_factory()
        # The checkpoint-reload path: reserve from a stored document.
        reopened.reserve_ids(8)
        assert reopened.next_id == 9


# ----------------------------------------------------------------------
# Ranged chunk reads (BackendContainerStore.read_chunks)
# ----------------------------------------------------------------------
class TestReadChunks:
    def _store_with_container(self, backend, compress=False):
        store = BackendContainerStore(backend, capacity=100_000, compress=compress)
        c = store.allocate()
        _fill(c, range(10), size=500)
        store.write(c)
        return store, c.container_id

    def test_matches_full_read(self, tmp_path):
        store, cid = self._store_with_container(SQLiteBackend(str(tmp_path / "c.db")))
        wanted = [synthetic_fingerprint(t) for t in (1, 5, 9)]
        chunks = store.read_chunks(cid, wanted)
        full = store.peek(cid)
        assert chunks is not None and chunks.index is not None
        for fp in wanted:
            assert chunks.get_chunk(fp).data == full.get_chunk(fp).data

    def test_bills_whole_container(self, tmp_path):
        store, cid = self._store_with_container(SQLiteBackend(str(tmp_path / "c.db")))
        before_bytes = store.stats.bytes_read
        before_reads = store.stats.container_reads
        store.read_chunks(cid, [synthetic_fingerprint(1)])
        full = store.peek(cid)
        # Ranged fetch, whole-container billing: one read, all logical bytes.
        assert store.stats.container_reads - before_reads == 1
        assert store.stats.bytes_read - before_bytes == full.used

    def test_unknown_fingerprint_raises(self, tmp_path):
        store, cid = self._store_with_container(SQLiteBackend(str(tmp_path / "c.db")))
        with pytest.raises(UnknownChunkError):
            store.read_chunks(cid, [synthetic_fingerprint(999)])

    def test_compressed_returns_none(self, tmp_path):
        store, cid = self._store_with_container(
            SQLiteBackend(str(tmp_path / "z.db")), compress=True
        )
        assert store.read_chunks(cid, [synthetic_fingerprint(1)]) is None

    def test_file_backend_returns_none(self, tmp_path):
        # FileBackend declines ranged reads (a local read is one syscall;
        # declining also keeps benchmark monkeypatching of ``read`` honest).
        store, cid = self._store_with_container(FileBackend(str(tmp_path / "c")))
        assert store.read_chunks(cid, [synthetic_fingerprint(1)]) is None
