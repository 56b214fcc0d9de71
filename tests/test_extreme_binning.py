"""Tests for the Extreme Binning index."""

import pytest

from repro.chunking.stream import Chunk, synthetic_fingerprint
from repro.errors import IndexError_
from repro.index import ExtremeBinningIndex, make_index
from repro.metrics import exact_dedup_ratio
from repro.pipeline import build_scheme
from repro.pipeline.system import BackupSystem
from repro.units import KiB


def chunks(tokens, size=1000):
    return [Chunk(synthetic_fingerprint(t), size) for t in tokens]


class TestBinning:
    def test_identical_file_fully_deduplicated(self):
        index = ExtremeBinningIndex(segment_chunks=8)
        batch = chunks(range(8))
        assert index.lookup_batch(batch) == [None] * 8
        for i, c in enumerate(batch):
            index.record(c, 10 + i)
        index.end_batch()
        results = index.lookup_batch(batch)
        assert results == list(range(10, 18))
        assert index.whole_file_hits == 1

    def test_similar_file_deduplicates_against_its_bin(self):
        index = ExtremeBinningIndex(segment_chunks=8)
        rep_chunk = Chunk(b"\x00" * 20, 1000)  # pinned representative
        original = [rep_chunk] + chunks(range(7))
        index.lookup_batch(original)
        for i, c in enumerate(original):
            index.record(c, i)
        index.end_batch()
        # Same representative (min fp kept), two chunks changed.
        edited = original[:6] + chunks([100, 101])
        results = index.lookup_batch(edited)
        assert results[:6] == list(range(6))
        assert results[6:] == [None, None]

    def test_bin_update_accumulates_new_chunks(self):
        index = ExtremeBinningIndex(segment_chunks=8)
        # Pin the representative: an all-zero fingerprint is always minimal.
        rep_chunk = Chunk(b"\x00" * 20, 1000)

        def ingest(batch):
            index.lookup_batch(batch)
            for i, c in enumerate(batch):
                index.record(c, i)
            index.end_batch()

        ingest([rep_chunk] + chunks(range(7)))
        ingest([rep_chunk] + chunks(range(5)) + chunks([100, 101]))
        # Third generation: the bin accumulated generation-two's additions.
        third = [rep_chunk] + chunks([100, 101]) + chunks([102, 103])
        results = index.lookup_batch(third)
        assert None not in results[:3]  # rep + generation-two chunks found
        assert results[3:] == [None, None]

    def test_one_disk_access_per_matched_file(self):
        index = ExtremeBinningIndex(segment_chunks=8)
        batch = chunks(range(8))
        index.lookup_batch(batch)
        for i, c in enumerate(batch):
            index.record(c, i)
        index.end_batch()
        assert index.io_stats.index_lookups == 0  # first file: no bin existed
        index.lookup_batch(batch)
        assert index.io_stats.index_lookups == 1

    def test_memory_is_one_entry_per_file(self):
        index = ExtremeBinningIndex(segment_chunks=4)
        for base in range(0, 40, 4):
            batch = chunks(range(base, base + 4))
            index.lookup_batch(batch)
            for i, c in enumerate(batch):
                index.record(c, i)
            index.end_batch()
        assert index.memory_bytes == 10 * 44

    def test_rejects_bad_segment_size(self):
        with pytest.raises(IndexError_):
            ExtremeBinningIndex(segment_chunks=0)

    def test_factory(self):
        assert isinstance(make_index("binning"), ExtremeBinningIndex)


class TestBinningEndToEnd:
    def test_near_exact_on_versioned_workload(self, small_workload):
        system = BackupSystem(
            ExtremeBinningIndex(segment_chunks=64), container_size=64 * KiB
        )
        for stream in small_workload.versions():
            system.backup(stream)
        exact = exact_dedup_ratio(small_workload.versions())
        # File-similarity binning loses more than SiLo on boundary drift,
        # but must stay within a moderate band and never exceed exact.
        assert system.dedup_ratio <= exact + 1e-9
        assert system.dedup_ratio > exact - 0.30

    def test_restores_correctly(self, small_workload):
        system = build_scheme("binning", container_size=64 * KiB)
        for stream in small_workload.versions():
            system.backup(stream)
        restored = list(system.restore_chunks(8))
        assert [c.fingerprint for c in restored] == small_workload.version(8).fingerprints()
