"""Tests for the BLC index, hot-set restore and container compression."""

import os

import pytest

from repro.chunking.stream import Chunk, synthetic_fingerprint
from repro.errors import IndexError_
from repro.index import BLCIndex, make_index
from repro.metrics import exact_dedup_ratio
from repro.pipeline import build_scheme
from repro.pipeline.system import BackupSystem
from repro.restore import FAARestore, HotSetRestore, make_restorer
from repro.storage import FileContainerStore
from repro.units import KiB


def chunks(tokens, size=1000):
    return [Chunk(synthetic_fingerprint(t), size) for t in tokens]


class TestBLCIndex:
    def test_exact_deduplication(self, small_workload):
        system = BackupSystem(BLCIndex(expected_chunks=10_000), container_size=64 * KiB)
        for stream in small_workload.versions():
            system.backup(stream)
        assert abs(
            system.dedup_ratio - exact_dedup_ratio(small_workload.versions())
        ) < 1e-12

    def test_recipe_page_locality_amortises_lookups(self, small_workload):
        """One disk probe faults a whole previous-recipe page; the stream
        then hits the page cache — far fewer probes than one-per-duplicate."""
        index = BLCIndex(page_entries=64, cache_pages=32, expected_chunks=10_000)
        system = BackupSystem(index, container_size=64 * KiB)
        for stream in small_workload.versions():
            system.backup(stream)
        duplicates = index.stats.duplicates
        assert index.io_stats.index_lookups < duplicates / 4

    def test_beats_ddfs_under_fragmentation(self):
        """BLC's recipe-order locality stays fresh; DDFS's container-order
        locality stales — the published result's direction."""
        from repro.index import DDFSIndex
        from repro.workloads import load_preset

        def run(index):
            system = BackupSystem(index, container_size=32 * KiB)
            for stream in load_preset(
                "kernel", versions=12, chunks_per_version=800
            ).versions():
                system.backup(stream)
            return index.io_stats.index_lookups

        blc = run(BLCIndex(page_entries=128, cache_pages=8, expected_chunks=100_000))
        ddfs = run(DDFSIndex(expected_chunks=100_000, cache_containers=8))
        assert blc < ddfs

    def test_page_cache_capacity_enforced(self, small_workload):
        index = BLCIndex(page_entries=16, cache_pages=2, expected_chunks=10_000)
        system = BackupSystem(index, container_size=64 * KiB)
        for stream in small_workload.versions():
            system.backup(stream)
        assert len(index._cache) <= 2

    def test_memory_accounts_bloom_and_pages(self):
        index = BLCIndex(expected_chunks=1000)
        assert index.memory_bytes >= index.bloom.size_bytes

    def test_validation(self):
        with pytest.raises(IndexError_):
            BLCIndex(page_entries=0)
        with pytest.raises(IndexError_):
            BLCIndex(cache_pages=0)

    def test_factory_and_scheme(self, small_workload):
        assert isinstance(make_index("blc"), BLCIndex)
        system = build_scheme("blc", container_size=64 * KiB)
        for stream in small_workload.versions():
            system.backup(stream)
        restored = list(system.restore_chunks(8))
        assert [c.fingerprint for c in restored] == small_workload.version(8).fingerprints()


class TestHotSetRestore:
    def test_reads_each_container_exactly_once(self):
        from tests.test_restore_algorithms import Layout

        layout = Layout([(t, 1 + (t % 8)) for t in range(64)])
        HotSetRestore().run(layout.entries, layout.reader)
        assert layout.reads == 8

    def test_restores_exact_sequence(self):
        from tests.test_restore_algorithms import Layout

        layout = Layout([(t, 1 + (t * 7) % 5) for t in range(40)])
        out = HotSetRestore().run(layout.entries, layout.reader)
        assert [c.fingerprint for c in out] == [e.fingerprint for e in layout.entries]

    def test_never_more_reads_than_small_faa(self):
        from tests.test_restore_algorithms import Layout

        pattern = [(t, 1 + (t % 8)) for t in range(64)]
        faa_layout = Layout(pattern)
        FAARestore(area_bytes=8 * 1024).run(faa_layout.entries, faa_layout.reader)
        hot_layout = Layout(pattern)
        HotSetRestore().run(hot_layout.entries, hot_layout.reader)
        assert hot_layout.reads <= faa_layout.reads

    def test_hidestore_newest_version_with_hotset(self, small_workload):
        from repro.core import HiDeStore

        system = HiDeStore(container_size=64 * KiB)
        for stream in small_workload.versions():
            system.backup(stream)
        tiny_faa = system.restore(8, restorer=FAARestore(area_bytes=64 * KiB))
        hot = system.restore(8, restorer=HotSetRestore())
        assert hot.container_reads <= tiny_faa.container_reads
        assert hot.speed_factor >= tiny_faa.speed_factor

    def test_factory(self):
        assert isinstance(make_restorer("hotset"), HotSetRestore)


class TestContainerCompression:
    def _fill(self, store, payload):
        container = store.allocate()
        container.add(Chunk(synthetic_fingerprint(1), len(payload), payload))
        store.write(container)
        return container.container_id

    def test_round_trip(self, tmp_path):
        store = FileContainerStore(str(tmp_path / "c"), capacity=64 * KiB, compress=True)
        payload = b"compressible " * 1000
        cid = self._fill(store, payload)
        loaded = store.read(cid)
        assert loaded.get_chunk(synthetic_fingerprint(1)).data == payload

    def test_compressible_data_shrinks_on_disk(self, tmp_path):
        plain = FileContainerStore(str(tmp_path / "p"), capacity=64 * KiB)
        packed = FileContainerStore(str(tmp_path / "z"), capacity=64 * KiB, compress=True)
        payload = b"A" * 30_000
        self._fill(plain, payload)
        self._fill(packed, payload)
        plain_size = os.path.getsize(os.path.join(str(tmp_path / "p"), "container-00000001.hdsc"))
        packed_size = os.path.getsize(os.path.join(str(tmp_path / "z"), "container-00000001.hdsc"))
        assert packed_size < plain_size / 10

    def test_mixed_stores_read_both_formats(self, tmp_path):
        root = str(tmp_path / "c")
        plain = FileContainerStore(root, capacity=64 * KiB, compress=False)
        self._fill(plain, b"plain" * 100)
        packed = FileContainerStore(root, capacity=64 * KiB, compress=True)
        container = packed.allocate()
        container.add(Chunk(synthetic_fingerprint(2), 500, b"z" * 500))
        packed.write(container)
        reader = FileContainerStore(root, capacity=64 * KiB)
        assert reader.read(1).get_chunk(synthetic_fingerprint(1)).data == b"plain" * 100
        assert reader.read(2).get_chunk(synthetic_fingerprint(2)).data == b"z" * 500

    def test_corrupt_compressed_file_detected(self, tmp_path):
        from repro.errors import StorageError

        store = FileContainerStore(str(tmp_path / "c"), capacity=64 * KiB, compress=True)
        cid = self._fill(store, b"data" * 100)
        path = os.path.join(str(tmp_path / "c"), f"container-{cid:08d}.hdsc")
        with open(path, "r+b") as handle:
            handle.seek(10)
            handle.write(b"XXXX")
        with pytest.raises(StorageError):
            store.read(cid)
