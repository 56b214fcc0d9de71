"""Tests for the fingerprint indexes (exact, DDFS, Sparse, SiLo)."""

import pytest

from repro.chunking.stream import Chunk, synthetic_fingerprint
from repro.errors import IndexError_
from repro.index import DDFSIndex, ExactFullIndex, SiLoIndex, SparseIndex, make_index
from repro.metrics import exact_dedup_ratio
from repro.pipeline.system import BackupSystem


def chunks(tokens, size=1000):
    return [Chunk(synthetic_fingerprint(t), size) for t in tokens]


def run_workload(index, workload):
    system = BackupSystem(index)
    for stream in workload.versions():
        system.backup(stream)
    return system


class TestExactFullIndex:
    def test_classifies_duplicates_exactly(self):
        index = ExactFullIndex()
        batch = chunks([1, 2, 3])
        assert index.lookup_batch(batch) == [None, None, None]
        for i, c in enumerate(batch):
            index.record(c, 10 + i)
        assert index.lookup_batch(chunks([2, 9])) == [11, None]

    def test_every_probe_bills_disk(self):
        index = ExactFullIndex()
        index.lookup_batch(chunks([1, 2, 3]))
        assert index.io_stats.index_lookups == 3

    def test_memory_is_zero_table_grows(self):
        index = ExactFullIndex()
        for i, c in enumerate(chunks(range(10))):
            index.record(c, i)
        assert index.memory_bytes == 0
        assert index.table_bytes == 10 * 28
        assert len(index) == 10

    def test_record_updates_location(self):
        index = ExactFullIndex()
        c = chunks([1])[0]
        index.record(c, 5)
        index.record(c, 9)  # rewritten copy
        assert index.lookup_batch([c]) == [9]


class TestDDFSIndex:
    def test_exact_deduplication(self, small_workload):
        system = run_workload(DDFSIndex(expected_chunks=10_000), small_workload)
        assert abs(system.dedup_ratio - exact_dedup_ratio(small_workload.versions())) < 1e-9

    def test_bloom_suppresses_unique_lookups(self):
        index = DDFSIndex(expected_chunks=10_000)
        index.lookup_batch(chunks(range(1000)))
        # All chunks unique and unknown: essentially no disk probes (only
        # Bloom false positives would bill, and there are none yet).
        assert index.io_stats.index_lookups <= 10

    def test_locality_prefetch_serves_followers_from_cache(self):
        index = DDFSIndex(expected_chunks=10_000, cache_containers=4)
        batch = chunks(range(100))
        index.lookup_batch(batch)
        for c in batch:
            index.record(c, 1)  # all in container 1
        # Evict container 1's metadata from the cache.
        for filler_cid in range(2, 10):
            index.record(chunks([1000 + filler_cid])[0], filler_cid)
        before = index.io_stats.index_lookups
        results = index.lookup_batch(batch)
        assert all(r == 1 for r in results)
        # One disk probe prefetches the whole container's metadata; the
        # other 99 chunks hit the locality cache.
        assert index.io_stats.index_lookups - before == 1

    def test_memory_accounts_bloom_and_cache(self):
        index = DDFSIndex(expected_chunks=1000, cache_containers=2)
        base = index.memory_bytes
        assert base >= index.bloom.size_bytes
        for i, c in enumerate(chunks(range(50))):
            index.record(c, 1 + (i % 2))
        assert index.memory_bytes > base

    def test_cache_capacity_enforced(self):
        index = DDFSIndex(expected_chunks=1000, cache_containers=2)
        for cid in range(1, 6):
            index.record(chunks([cid])[0], cid)
        assert len(index._cache) <= 2

    def test_rejects_bad_cache_size(self):
        with pytest.raises(IndexError_):
            DDFSIndex(cache_containers=0)


class TestSparseIndex:
    def test_near_exact_on_versioned_workload(self, small_workload):
        index = SparseIndex(segment_chunks=128, sample_rate=16, max_champions=4)
        system = run_workload(index, small_workload)
        exact = exact_dedup_ratio(small_workload.versions())
        assert system.dedup_ratio >= exact - 0.05
        assert system.dedup_ratio <= exact + 1e-9

    def test_lookups_bounded_by_champions(self, small_workload):
        index = SparseIndex(segment_chunks=128, sample_rate=16, max_champions=4)
        run_workload(index, small_workload)
        segments = sum(
            (len(s) + 127) // 128 for s in small_workload.versions()
        )
        assert index.io_stats.index_lookups <= segments * 4

    def test_memory_is_hooks_only(self, small_workload):
        index = SparseIndex(segment_chunks=128, sample_rate=16)
        system = run_workload(index, small_workload)
        # Far smaller than one entry per unique chunk.
        unique_chunks = index.table_bytes // 28
        assert index.memory_bytes < unique_chunks * 28 / 4

    def test_hook_capacity_bounds_entries(self):
        index = SparseIndex(segment_chunks=4, sample_rate=1, hook_capacity=2)
        batch = chunks([1, 2, 3, 4])
        for _ in range(5):
            index.lookup_batch(batch)
            for c in batch:
                index.record(c, 1)
            index.end_batch()
        assert all(len(v) <= 2 for v in index._sparse.values())

    def test_rejects_bad_parameters(self):
        with pytest.raises(IndexError_):
            SparseIndex(segment_chunks=0)
        with pytest.raises(IndexError_):
            SparseIndex(sample_rate=0)


class TestSiLoIndex:
    def test_near_exact_on_versioned_workload(self, small_workload):
        index = SiLoIndex(segment_chunks=64, segments_per_block=4, cache_blocks=8)
        system = run_workload(index, small_workload)
        exact = exact_dedup_ratio(small_workload.versions())
        assert system.dedup_ratio >= exact - 0.05
        assert system.dedup_ratio <= exact + 1e-9

    def test_similarity_table_is_tiny(self, small_workload):
        index = SiLoIndex(segment_chunks=64, segments_per_block=4)
        run_workload(index, small_workload)
        # One 24-byte entry per segment, not per chunk.
        assert index.memory_bytes < index.table_bytes / 10

    def test_block_loads_bill_disk(self, small_workload):
        index = SiLoIndex(segment_chunks=64, segments_per_block=4, cache_blocks=2)
        run_workload(index, small_workload)
        assert index.io_stats.index_lookups > 0

    def test_cache_capacity_enforced(self, small_workload):
        index = SiLoIndex(segment_chunks=64, segments_per_block=2, cache_blocks=3)
        run_workload(index, small_workload)
        assert len(index._cache) <= 3

    def test_rejects_bad_parameters(self):
        with pytest.raises(IndexError_):
            SiLoIndex(segment_chunks=0)


class TestMakeIndex:
    @pytest.mark.parametrize(
        "name,cls",
        [("exact", ExactFullIndex), ("ddfs", DDFSIndex), ("sparse", SparseIndex), ("silo", SiLoIndex)],
    )
    def test_factory(self, name, cls):
        assert isinstance(make_index(name), cls)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_index("btree")
