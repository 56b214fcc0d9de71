"""Tests for the container store (memory + file backends) and I/O billing."""

import os

import pytest

from repro.chunking.stream import Chunk, synthetic_fingerprint
from repro.errors import StorageError, UnknownContainerError
from repro.storage.backend import MemoryBackend
from repro.storage.container import Container
from repro.storage.container_store import BackendContainerStore, FileContainerStore


def fill(container, tokens, size=100, with_data=False):
    for t in tokens:
        data = bytes([t % 256]) * size if with_data else None
        container.add(Chunk(synthetic_fingerprint(t), size, data))


@pytest.fixture(params=["memory", "file"])
def store(request, tmp_path):
    if request.param == "memory":
        return BackendContainerStore(MemoryBackend(), capacity=10_000)
    return FileContainerStore(str(tmp_path / "containers"), capacity=10_000)


class TestCommonBehaviour:
    def test_allocate_monotonic_ids_from_one(self, store):
        a = store.allocate()
        b = store.allocate()
        assert (a.container_id, b.container_id) == (1, 2)
        assert store.next_id == 3

    def test_write_read_round_trip(self, store):
        c = store.allocate()
        fill(c, range(5))
        store.write(c)
        loaded = store.read(c.container_id)
        assert loaded.chunk_count == 5
        assert synthetic_fingerprint(3) in loaded

    def test_write_seals(self, store):
        c = store.allocate()
        fill(c, [1])
        store.write(c)
        assert c.sealed

    def test_double_write_rejected(self, store):
        c = store.allocate()
        fill(c, [1])
        store.write(c)
        c2 = Container(1, 10_000)  # same id 1
        fill(c2, [2])
        with pytest.raises(StorageError):
            store.write(c2)

    def test_read_unknown_raises(self, store):
        with pytest.raises(UnknownContainerError):
            store.read(99)

    def test_delete(self, store):
        c = store.allocate()
        fill(c, [1])
        store.write(c)
        store.delete(c.container_id)
        assert c.container_id not in store
        with pytest.raises(UnknownContainerError):
            store.delete(c.container_id)

    def test_container_ids_sorted(self, store):
        for _ in range(3):
            c = store.allocate()
            fill(c, [c.container_id])
            store.write(c)
        assert store.container_ids() == [1, 2, 3]
        assert len(store) == 3

    def test_read_bills_io(self, store):
        c = store.allocate()
        fill(c, range(4), size=50)
        store.write(c)
        before = store.stats.snapshot()
        store.read(c.container_id)
        delta = store.stats.delta(before)
        assert delta.container_reads == 1
        assert delta.bytes_read == 200

    def test_write_bills_io(self, store):
        c = store.allocate()
        fill(c, range(4), size=50)
        before = store.stats.snapshot()
        store.write(c)
        delta = store.stats.delta(before)
        assert delta.container_writes == 1
        assert delta.bytes_written == 200

    def test_peek_does_not_bill(self, store):
        c = store.allocate()
        fill(c, [1])
        store.write(c)
        before = store.stats.snapshot()
        store.peek(c.container_id)
        assert store.stats.delta(before).container_reads == 0

    def test_stored_bytes(self, store):
        c = store.allocate()
        fill(c, range(3), size=100)
        store.write(c)
        assert store.stored_bytes() == 300


class TestFileStoreSpecifics:
    def test_payload_round_trip(self, tmp_path):
        store = FileContainerStore(str(tmp_path / "c"), capacity=10_000)
        c = store.allocate()
        fill(c, range(3), size=64, with_data=True)
        store.write(c)
        loaded = store.read(c.container_id)
        for t in range(3):
            assert loaded.get_chunk(synthetic_fingerprint(t)).data == bytes([t]) * 64

    def test_metadata_only_round_trip_keeps_none_payload(self, tmp_path):
        store = FileContainerStore(str(tmp_path / "c"), capacity=10_000)
        c = store.allocate()
        fill(c, range(3), with_data=False)
        store.write(c)
        loaded = store.read(c.container_id)
        assert loaded.get_chunk(synthetic_fingerprint(0)).data is None

    def test_reopen_resumes_id_allocation(self, tmp_path):
        root = str(tmp_path / "c")
        store = FileContainerStore(root, capacity=10_000)
        c = store.allocate()
        fill(c, [1])
        store.write(c)
        reopened = FileContainerStore(root, capacity=10_000)
        assert reopened.allocate().container_id == 2

    def test_corrupt_file_detected(self, tmp_path):
        root = str(tmp_path / "c")
        store = FileContainerStore(root, capacity=10_000)
        c = store.allocate()
        fill(c, [1])
        store.write(c)
        path = os.path.join(root, "container-00000001.hdsc")
        with open(path, "r+b") as handle:
            handle.write(b"XXXX")
        with pytest.raises(StorageError):
            store.read(1)

    def test_files_on_disk(self, tmp_path):
        root = str(tmp_path / "c")
        store = FileContainerStore(root, capacity=10_000)
        c = store.allocate()
        fill(c, [1])
        store.write(c)
        assert os.path.exists(os.path.join(root, "container-00000001.hdsc"))

    def test_foreign_files_do_not_break_store_open(self, tmp_path):
        """A stray non-numeric name ("container-backup.hdsc") must not
        crash container_ids / store open (regression: ValueError)."""
        root = str(tmp_path / "c")
        store = FileContainerStore(root, capacity=10_000)
        c = store.allocate()
        fill(c, [1])
        store.write(c)
        for name in ("container-backup.hdsc", "container-.hdsc", "README.txt"):
            with open(os.path.join(root, name), "wb") as handle:
                handle.write(b"not a container")
        reopened = FileContainerStore(root, capacity=10_000)
        assert reopened.container_ids() == [1]
        assert reopened.allocate().container_id == 2


class TestTmpHygiene:
    def test_open_sweeps_orphaned_tmp_files(self, tmp_path):
        root = str(tmp_path / "c")
        store = FileContainerStore(root, capacity=10_000)
        c = store.allocate()
        fill(c, [1])
        store.write(c)
        # A crashed writer leaves a half-written temp file behind.
        orphan = os.path.join(root, "container-00000002.hdsc.tmp")
        with open(orphan, "wb") as handle:
            handle.write(b"partial")
        reopened = FileContainerStore(root, capacity=10_000)
        assert not os.path.exists(orphan)
        assert reopened.container_ids() == [1]
        assert reopened.allocate().container_id == 2

    def test_failed_write_unlinks_tmp(self, tmp_path, monkeypatch):
        root = str(tmp_path / "c")
        store = FileContainerStore(root, capacity=10_000)
        c = store.allocate()
        fill(c, [1], with_data=True)

        def boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            store.write(c)
        monkeypatch.undo()
        assert [n for n in os.listdir(root) if n.endswith(".tmp")] == []
        assert store.container_ids() == []
        # The failed write must not have billed I/O either.
        assert store.stats.container_writes == 0


class TestCompressedStore:
    def make(self, tmp_path, **kwargs):
        return FileContainerStore(str(tmp_path / "c"), capacity=10_000, **kwargs)

    def test_compressed_payload_round_trip(self, tmp_path):
        store = self.make(tmp_path, compress=True)
        c = store.allocate()
        fill(c, range(3), size=64, with_data=True)
        store.write(c)
        loaded = store.read(c.container_id)
        for t in range(3):
            assert loaded.get_chunk(synthetic_fingerprint(t)).data == bytes([t]) * 64
        # Repetitive payloads must actually shrink on disk.
        path = os.path.join(str(tmp_path / "c"), "container-00000001.hdsc")
        assert os.path.getsize(path) < 3 * 64

    def test_plain_store_reads_compressed_files(self, tmp_path):
        compressed = self.make(tmp_path, compress=True)
        c = compressed.allocate()
        fill(c, range(3), size=64, with_data=True)
        compressed.write(c)
        plain = self.make(tmp_path, compress=False)
        loaded = plain.read(1)
        assert loaded.get_chunk(synthetic_fingerprint(1)).data == bytes([1]) * 64

    def test_compressed_delete(self, tmp_path):
        store = self.make(tmp_path, compress=True)
        c = store.allocate()
        fill(c, [1], with_data=True)
        store.write(c)
        store.delete(1)
        assert 1 not in store
        with pytest.raises(UnknownContainerError):
            store.delete(1)

    def test_compressed_billing_uses_logical_bytes(self, tmp_path):
        store = self.make(tmp_path, compress=True)
        c = store.allocate()
        fill(c, range(4), size=50, with_data=True)
        before = store.stats.snapshot()
        store.write(c)
        delta = store.stats.delta(before)
        assert delta.container_writes == 1
        assert delta.bytes_written == 200  # logical, not compressed, bytes
        before = store.stats.snapshot()
        store.read(1)
        delta = store.stats.delta(before)
        assert delta.container_reads == 1
        assert delta.bytes_read == 200

    def test_compressed_peek_does_not_bill(self, tmp_path):
        store = self.make(tmp_path, compress=True)
        c = store.allocate()
        fill(c, [1], with_data=True)
        store.write(c)
        before = store.stats.snapshot()
        peeked = store.peek(1)
        assert peeked.get_chunk(synthetic_fingerprint(1)).data == bytes([1]) * 100
        delta = store.stats.delta(before)
        assert delta.container_reads == 0
        assert delta.bytes_read == 0


# ----------------------------------------------------------------------
# Decoding a stored blob: one pass over the table, slots only on demand
# ----------------------------------------------------------------------
def _full_blob(slots=448):
    """A 4 MiB container of ``slots`` chunks, packed as stored."""
    from repro.storage.container_store import pack_container

    container = Container(7)
    size = container.capacity // slots
    for t in range(slots):
        container.add(Chunk(synthetic_fingerprint(t), size, bytes([t % 256]) * size))
    return pack_container(container), size


class TestIndexedDecode:
    def test_decoding_builds_no_slot_until_one_is_read(self, monkeypatch):
        from repro.storage import container as container_module
        from repro.storage.container_store import decode_container

        blob, size = _full_blob()
        built = []

        class CountedSlot(container_module.ChunkSlot):
            __slots__ = ()

            def __init__(self, *args):
                built.append(args[0])
                super().__init__(*args)

        monkeypatch.setattr(container_module, "ChunkSlot", CountedSlot)
        decoded = decode_container(blob, 7)
        fp = synthetic_fingerprint(300)
        assert decoded.chunk_count == 448 and fp in decoded
        assert decoded.used == 448 * size
        assert decoded.index[fp] == (300 * size, size)
        assert built == []
        assert bytes(decoded.get(fp).data) == bytes([300 % 256]) * size
        assert built == [300 * size]
        # A mutation turns the index into slots once; reads then use them.
        decoded.remove(synthetic_fingerprint(0))
        assert decoded.index is None and len(built) == 1 + 448
        assert bytes(decoded.get(fp).data) == bytes([300 % 256]) * size
        assert len(built) == 1 + 448

    def test_the_index_round_trips_what_was_packed(self):
        from repro.storage.container_store import decode_container, unpack_container

        blob, _size = _full_blob(slots=64)
        decoded = decode_container(blob, 7)
        owned = unpack_container(blob)  # bytes: eager slots, copied data
        assert decoded.index is not None and owned.index is None
        assert decoded.fingerprints() == owned.fingerprints()
        for (fp, slot), (fp2, own) in zip(decoded.items(), owned.items()):
            assert (fp, slot.offset, slot.size, bytes(slot.data)) == (
                fp2, own.offset, own.size, own.data,
            )
        assert [(fp, bytes(data)) for fp, data in decoded.payloads()] == [
            (fp, data) for fp, data in owned.payloads()
        ]

    @pytest.mark.parametrize("own", [False, True])
    @pytest.mark.parametrize(
        "damage",
        ["bad magic", "bad id", "short table", "table cut at an entry", "cut-short payload",
         "duplicate fingerprint", "broken zlib"],
    )
    def test_every_damaged_blob_raises_at_decode(self, damage, own):
        import zlib

        from repro.storage.container_store import _ENTRY, _HEADER, decode_container

        blob, _size = _full_blob(slots=16)
        blob = bytearray(blob)
        table = _HEADER.size
        if damage == "bad magic":
            blob[:4] = b"XXXX"
        elif damage == "bad id":
            blob[4] ^= 0x01
        elif damage == "short table":
            del blob[table + 5 * _ENTRY.size + 3 :]
        elif damage == "table cut at an entry":
            del blob[table + 5 * _ENTRY.size :]
        elif damage == "cut-short payload":
            del blob[-10:]
        elif damage == "duplicate fingerprint":
            second = table + _ENTRY.size
            blob[second : second + 20] = blob[table : table + 20]
        elif damage == "broken zlib":
            blob = bytearray(b"HDSZ" + zlib.compress(bytes(blob))[:-8])
        with pytest.raises(StorageError):
            decode_container(bytes(blob), 7, own=own)


# ----------------------------------------------------------------------
# file:// reads map the container object instead of copying it
# ----------------------------------------------------------------------
class TestMappedReads:
    def written(self, tmp_path, compress=False):
        store = FileContainerStore(str(tmp_path / "c"), capacity=10_000, compress=compress)
        c = store.allocate()
        fill(c, range(3), size=64, with_data=True)
        store.write(c)
        return store, os.path.join(str(tmp_path / "c"), "container-00000001.hdsc")

    def test_a_plain_read_is_a_view_of_a_mapping(self, tmp_path):
        import mmap

        store, _path = self.written(tmp_path)
        for loaded in (store.read(1), store.peek(1)):
            assert isinstance(loaded.payload.obj, mmap.mmap)
            assert bytes(loaded.get_chunk(synthetic_fingerprint(2)).data) == bytes([2]) * 64

    def test_a_compressed_read_decompresses_to_bytes(self, tmp_path):
        store, _path = self.written(tmp_path, compress=True)
        loaded = store.read(1)
        assert type(loaded.payload.obj) is bytes
        assert bytes(loaded.get_chunk(synthetic_fingerprint(1)).data) == bytes([1]) * 64

    def test_a_held_read_outlives_its_unlinked_file(self, tmp_path):
        store, path = self.written(tmp_path)
        loaded = store.read(1)
        store.delete(1)
        assert not os.path.exists(path)
        for t in range(3):
            assert bytes(loaded.get_chunk(synthetic_fingerprint(t)).data) == bytes([t]) * 64

    def test_a_read_that_cannot_map_copies(self, tmp_path, monkeypatch):
        import errno
        import mmap

        store, _path = self.written(tmp_path)

        def out_of_descriptors(*_args, **_kwargs):
            raise OSError(errno.EMFILE, "Too many open files")

        monkeypatch.setattr(mmap, "mmap", out_of_descriptors)
        loaded = store.read(1)
        assert type(loaded.payload.obj) is bytes
        assert bytes(loaded.get_chunk(synthetic_fingerprint(2)).data) == bytes([2]) * 64

    def test_held_reads_leave_descriptors_for_other_opens(self, tmp_path):
        # Each live mapping pins a descriptor.  A child process lowers its own
        # soft limit to 64, holds reads of 80 containers made by 8 threads
        # (the count is shared), then opens 8 files.
        import subprocess
        import sys
        import textwrap

        import repro

        script = textwrap.dedent(
            """
            import mmap, resource, sys
            from concurrent.futures import ThreadPoolExecutor
            from repro.chunking.stream import Chunk, synthetic_fingerprint
            from repro.storage.container_store import FileContainerStore

            store = FileContainerStore(sys.argv[1], capacity=10_000)
            for cid in range(1, 81):
                c = store.allocate()
                c.add(Chunk(synthetic_fingerprint(cid), 64, bytes([cid]) * 64))
                store.write(c)
            _soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
            resource.setrlimit(resource.RLIMIT_NOFILE, (64, hard))
            sys.setswitchinterval(1e-6)
            with ThreadPoolExecutor(8) as pool:
                held = list(pool.map(store.read, range(1, 81)))
            others = [open(sys.argv[1] + "/container-00000001.hdsc", "rb") for _ in range(8)]
            for handle in others:
                handle.close()
            assert all(
                bytes(c.get_chunk(synthetic_fingerprint(cid)).data) == bytes([cid]) * 64
                for cid, c in zip(range(1, 81), held)
            )
            print(sum(isinstance(c.payload.obj, mmap.mmap) for c in held))
            """
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        done = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "c")],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["16"]  # a quarter of the limit stays mapped

    @pytest.mark.parametrize("length", [0, 16], ids=["empty", "truncated"])
    def test_a_cut_object_still_raises_at_decode(self, tmp_path, length):
        store, path = self.written(tmp_path)
        with open(path, "r+b") as handle:  # no read of it is open
            handle.truncate(length)
        view = store.backend.view("container-00000001.hdsc")
        assert len(view) == length and (length or view == b"")
        del view
        with pytest.raises(StorageError, match="corrupt container object"):
            store.read(1)
        with pytest.raises(StorageError, match="corrupt container object"):
            store.peek(1)

    @pytest.mark.parametrize("kind", ["latency", "enospc"])
    def test_a_get_directive_fires_on_a_mapped_read(self, tmp_path, kind):
        from repro.chaos.faults import FaultController

        with FaultController() as controller:
            store, _path = self.written(tmp_path)
            controller.arm(kind, op="get", match_name="container-00000001", seconds=0.01)
            if kind == "enospc":
                with pytest.raises(StorageError, match="injected fault"):
                    store.read(1)
            else:
                assert store.read(1).chunk_count == 3
        assert [(f["kind"], f["op"], f["name"]) for f in controller.fired] == [
            (kind, "get", "container-00000001.hdsc")
        ]
