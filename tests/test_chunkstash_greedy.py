"""Tests for ChunkStash (flash index) and greedy (submodular) capping."""

import pytest

from repro.chunking.stream import Chunk, synthetic_fingerprint
from repro.errors import IndexError_, ReproError
from repro.index import ChunkStashIndex, make_index
from repro.metrics import exact_dedup_ratio
from repro.pipeline import build_scheme
from repro.pipeline.system import BackupSystem
from repro.rewriting import GreedyCappingRewriter, make_rewriter
from repro.units import KiB


def chunks(tokens, size=1000):
    return [Chunk(synthetic_fingerprint(t), size) for t in tokens]


class TestChunkStash:
    def test_exact_deduplication(self, small_workload):
        system = BackupSystem(ChunkStashIndex(), container_size=64 * KiB)
        for stream in small_workload.versions():
            system.backup(stream)
        assert abs(
            system.dedup_ratio - exact_dedup_ratio(small_workload.versions())
        ) < 1e-12

    def test_zero_disk_lookups(self, small_workload):
        index = ChunkStashIndex()
        system = BackupSystem(index, container_size=64 * KiB)
        for stream in small_workload.versions():
            system.backup(stream)
        assert index.io_stats.index_lookups == 0
        assert index.flash_lookups > 0

    def test_unique_chunks_skip_flash_mostly(self):
        index = ChunkStashIndex(signature_bytes=4)
        index.lookup_batch(chunks(range(500)))
        # Empty table: no signatures exist, so no flash probes at all.
        assert index.flash_lookups == 0

    def test_signature_collisions_resolved_on_flash(self):
        index = ChunkStashIndex(signature_bytes=1)  # force collisions
        batch = chunks(range(1000))
        index.lookup_batch(batch)
        for i, c in enumerate(batch):
            index.record(c, i)
        results = index.lookup_batch(batch)
        assert results == list(range(1000))  # exact despite collisions
        assert index.flash_false_probes >= 0

    def test_compact_ram_footprint(self):
        index = ChunkStashIndex(signature_bytes=2)
        batch = chunks(range(1000))
        for i, c in enumerate(batch):
            index.record(c, i)
        # 6 bytes per key (2-byte signature + 4-byte pointer) vs 28 full.
        assert index.memory_bytes == 1000 * 6
        assert index.flash_bytes == 1000 * 28

    def test_rewritten_copy_updates_location(self):
        index = ChunkStashIndex()
        c = chunks([5])[0]
        index.record(c, 1)
        index.record(c, 9)
        assert index.lookup_batch([c]) == [9]

    def test_bad_signature_width_rejected(self):
        with pytest.raises(IndexError_):
            ChunkStashIndex(signature_bytes=0)
        with pytest.raises(IndexError_):
            ChunkStashIndex(signature_bytes=9)

    def test_factory(self):
        assert isinstance(make_index("chunkstash"), ChunkStashIndex)

    def test_scheme_round_trip(self, small_workload):
        system = build_scheme("chunkstash", container_size=64 * KiB)
        for stream in small_workload.versions():
            system.backup(stream)
        restored = list(system.restore_chunks(8))
        assert [c.fingerprint for c in restored] == small_workload.version(8).fingerprints()


class TestGreedyCapping:
    def test_cap_bounds_containers_per_segment(self):
        rewriter = GreedyCappingRewriter(cap=3, segment_bytes=64 * KiB, min_coverage_bytes=0)
        batch = chunks(range(64))
        lookups = [1 + (i % 10) for i in range(64)]
        decisions = rewriter.decide(batch, lookups)
        assert len({d for d in decisions if d is not None}) <= 3

    def test_selects_by_byte_coverage_not_count(self):
        # Container 7: two 10 KiB chunks; container 8: five 1 KiB chunks.
        batch = [
            Chunk(synthetic_fingerprint(1), 10 * 1024),
            Chunk(synthetic_fingerprint(2), 10 * 1024),
        ] + chunks(range(10, 15), size=1024)
        lookups = [7, 7, 8, 8, 8, 8, 8]
        rewriter = GreedyCappingRewriter(cap=1, segment_bytes=1024 * KiB, min_coverage_bytes=0)
        decisions = rewriter.decide(batch, lookups)
        assert decisions[:2] == [7, 7]  # byte-heavier container wins
        assert all(d is None for d in decisions[2:])

    def test_marginal_floor_stops_early(self):
        # Container 1 dominates; container 2 contributes one tiny chunk.
        batch = chunks(range(10), size=8 * 1024) + chunks([99], size=100)
        lookups = [1] * 10 + [2]
        rewriter = GreedyCappingRewriter(cap=5, segment_bytes=1024 * KiB, min_coverage_bytes=1024)
        decisions = rewriter.decide(batch, lookups)
        assert decisions[:10] == [1] * 10
        assert decisions[10] is None  # below the marginal-utility floor

    def test_repeated_fingerprints_counted_once(self):
        fp_chunk = Chunk(synthetic_fingerprint(1), 4 * 1024)
        batch = [fp_chunk] * 6 + chunks([50], size=5 * 1024)
        lookups = [3] * 6 + [4]
        rewriter = GreedyCappingRewriter(cap=1, segment_bytes=1024 * KiB, min_coverage_bytes=0)
        decisions = rewriter.decide(batch, lookups)
        # Container 4 covers 5 KiB of distinct bytes; container 3 only 4 KiB
        # (the repeated chunk counts once).
        assert decisions[6] == 4
        assert all(d is None for d in decisions[:6])

    def test_never_invents_duplicates(self):
        rewriter = GreedyCappingRewriter(cap=2, segment_bytes=16 * KiB)
        batch = chunks(range(20))
        lookups = [None if i % 2 else 1 for i in range(20)]
        decisions = rewriter.decide(batch, lookups)
        for looked, decided in zip(lookups, decisions):
            if looked is None:
                assert decided is None

    def test_validation(self):
        with pytest.raises(ReproError):
            GreedyCappingRewriter(cap=0)
        with pytest.raises(ReproError):
            GreedyCappingRewriter(min_coverage_bytes=-1)

    def test_factory(self):
        assert isinstance(make_rewriter("greedy-capping"), GreedyCappingRewriter)

    def test_end_to_end_scheme(self, small_workload):
        from repro.units import MiB

        system = build_scheme(
            "greedy-capping",
            container_size=16 * KiB,
            rewriter_kwargs=dict(cap=8, segment_bytes=1 * MiB, min_coverage_bytes=0),
        )
        for stream in small_workload.versions():
            system.backup(stream)
        restored = list(system.restore_chunks(8))
        assert [c.fingerprint for c in restored] == small_workload.version(8).fingerprints()
        assert system.dedup_ratio < exact_dedup_ratio(small_workload.versions()) + 1e-9
