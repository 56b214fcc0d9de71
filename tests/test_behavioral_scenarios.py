"""Surgical behavioural scenarios built with the edit-script DSL.

These tests pin down mechanism-level semantics that the statistical
workloads only exercise in aggregate: exact recipe-chain shapes after known
edits, demotion contents, capping decisions under crafted fragmentation,
and ALACC's adaptive split.
"""

import pytest

from repro.chunking.stream import synthetic_fingerprint as fp
from repro.core import HiDeStore
from repro.restore import ALACCRestore
from repro.storage.recipe import ACTIVE_CID
from repro.units import KiB
from repro.workloads import EditScriptWorkload, delete, insert, modify, revive
from repro.workloads.synthetic import token_size


class TestRecipeChainScenarios:
    def test_chain_shape_after_two_versions(self):
        """v2 = v1 with chunk #3 modified: R_1 must hold exactly one
        archival CID (the demoted original of chunk #3) and -2 elsewhere."""
        workload = EditScriptWorkload(initial_chunks=10, mean_chunk_size=2 * KiB)
        workload.add_version(modify(3, 1))
        system = HiDeStore(container_size=64 * KiB)
        streams = workload.all_versions()
        for stream in streams:
            system.backup(stream)

        recipe = system.chain.chained(1)  # R_1 as §4.3 would have rewritten it
        archival = [e for e in recipe.entries if e.cid > 0]
        chained = [e for e in recipe.entries if e.cid < 0]
        assert len(archival) == 1
        assert archival[0].fingerprint == streams[0].fingerprints()[3]
        assert len(chained) == 9
        assert all(e.cid == -2 for e in chained)

    def test_demoted_bytes_equal_modified_chunks(self):
        workload = EditScriptWorkload(initial_chunks=20, mean_chunk_size=2 * KiB)
        workload.add_version(modify(5, 4))
        system = HiDeStore(container_size=64 * KiB)
        streams = workload.all_versions()
        for stream in streams:
            system.backup(stream)
        expected = sum(
            token_size(t, 2 * KiB) for t in range(5, 9)
        )
        assert system.pool.stats.cold_bytes_moved == expected
        assert system.pool.stats.cold_chunks_moved == 4

    def test_pure_insertion_demotes_nothing(self):
        workload = EditScriptWorkload(initial_chunks=10, mean_chunk_size=2 * KiB)
        workload.add_version(insert(5, 3))
        system = HiDeStore(container_size=64 * KiB)
        for stream in workload.versions():
            system.backup(stream)
        assert system.pool.stats.cold_chunks_moved == 0
        recipe = system.chain.chained(1)
        assert all(e.cid == -2 for e in recipe.entries)

    def test_deletion_tags_name_the_right_version(self):
        workload = EditScriptWorkload(initial_chunks=10, mean_chunk_size=2 * KiB)
        workload.add_version(delete(0, 2))  # v1's chunks 0-1 die with v1
        workload.add_version(modify(0, 1))  # one of v2's survivors dies with v2
        system = HiDeStore(container_size=64 * KiB)
        for stream in workload.versions():
            system.backup(stream)
        # Cold sets: after v2 -> tagged 1 (chunks 0,1); after v3 -> tagged 2.
        assert len(system.deletion.containers_for(1)) >= 1
        assert len(system.deletion.containers_for(2)) >= 1
        tagged_v1 = {
            fingerprint
            for cid in system.deletion.containers_for(1)
            for fingerprint in system.containers.peek(cid).fingerprints()
        }
        assert tagged_v1 == {fp(0), fp(1)}

    def test_newest_recipe_is_all_active(self):
        workload = EditScriptWorkload(initial_chunks=8, mean_chunk_size=2 * KiB)
        workload.add_version(modify(0, 2))
        system = HiDeStore(container_size=64 * KiB)
        for stream in workload.versions():
            system.backup(stream)
        newest = system.recipes.peek(2)
        assert all(e.cid == ACTIVE_CID for e in newest.entries)


class TestDepthTwoScenario:
    def test_skipped_chunk_location_resolves_through_the_gap(self):
        """v1 has X; v2 lacks X; v3 revives X.  With depth 2, X stays hot
        and all three recipes must restore X from the same physical copy."""
        workload = EditScriptWorkload(initial_chunks=6, mean_chunk_size=2 * KiB)
        workload.add_version(delete(0, 1))
        workload.add_version(revive(0))
        system = HiDeStore(container_size=64 * KiB, history_depth=2)
        streams = workload.all_versions()
        for stream in streams:
            system.backup(stream)
        assert system.report.stored_bytes == sum(
            token_size(t, 2 * KiB) for t in range(6)
        )
        for version_id, stream in enumerate(streams, start=1):
            restored = list(system.restore_chunks(version_id))
            assert [c.fingerprint for c in restored] == stream.fingerprints()


class TestCappingScenario:
    def test_crafted_fragmentation_is_repaired(self):
        """A version whose duplicates span many one-chunk containers gets its
        scattered chunks rewritten under a tight cap, and the repaired layout
        restores with few reads."""
        from repro.pipeline import build_scheme
        from repro.units import MiB

        chunk_bytes = 2 * KiB
        workload = EditScriptWorkload(initial_chunks=64, mean_chunk_size=chunk_bytes)
        # Interleave heavy churn to scatter survivors over generations.
        for k in range(6):
            workload.add_version(modify(k * 8, 8))
        system = build_scheme(
            "capping",
            container_size=8 * KiB,  # 2-4 chunks per container
            rewriter_kwargs=dict(cap=4, segment_bytes=1 * MiB),
            index_kwargs=dict(cache_containers=8),
        )
        for stream in workload.versions():
            system.backup(stream)
        newest = system.version_ids()[-1]
        recipe = system.recipes.peek(newest)
        assert len(recipe.referenced_containers()) <= 4 + 64 * chunk_bytes // (8 * KiB) + 1


class TestALACCAdaptivity:
    def _layout(self, repeats):
        from tests.test_restore_algorithms import Layout

        pattern = []
        for r in range(repeats):
            pattern += [(t, 1 + (t % 6)) for t in range(36)]
        return Layout(pattern, chunk_size=KiB, capacity=8 * KiB)

    def test_split_adapts_toward_faa_on_cache_hostile_stream(self):
        """A stream with no cross-area reuse makes the cache useless; the
        split must drift toward a bigger assembly area."""
        from tests.test_restore_algorithms import Layout

        # 200 chunks, each container visited once, never revisited.
        layout = Layout(
            [(t, 1 + t // 8) for t in range(200)], chunk_size=KiB, capacity=8 * KiB
        )
        algorithm = ALACCRestore(
            total_bytes=32 * KiB,
            lookahead_bytes=32 * KiB,
            min_faa_bytes=8 * KiB,
            step_bytes=4 * KiB,
        )
        algorithm.run(layout.entries, layout.reader)
        assert algorithm.last_faa_bytes > algorithm.total_bytes // 2

    def test_split_keeps_cache_on_cache_friendly_stream(self):
        """Heavy cross-area reuse keeps the chunk cache funded."""
        layout = self._layout(repeats=6)
        algorithm = ALACCRestore(
            total_bytes=24 * KiB,
            lookahead_bytes=64 * KiB,
            min_faa_bytes=8 * KiB,
            step_bytes=4 * KiB,
            grow_threshold=0.05,
        )
        algorithm.run(layout.entries, layout.reader)
        assert algorithm.last_cache_bytes >= algorithm.total_bytes // 2

    def test_alacc_beats_faa_when_reuse_fits_the_cache(self):
        """The design-premise regime: repeats within the look-ahead window
        and a working set the cache half can actually hold."""
        from tests.test_restore_algorithms import Layout
        from repro.restore import FAARestore

        # Working set: 2 containers (16 chunks, 16 KiB) revisited 8 times.
        pattern = []
        for _ in range(8):
            pattern += [(t, 1 + (t % 2)) for t in range(16)]
        faa_layout = Layout(pattern, chunk_size=KiB, capacity=8 * KiB)
        FAARestore(area_bytes=8 * KiB).run(faa_layout.entries, faa_layout.reader)
        alacc_layout = Layout(pattern, chunk_size=KiB, capacity=8 * KiB)
        ALACCRestore(
            total_bytes=32 * KiB,
            lookahead_bytes=128 * KiB,
            min_faa_bytes=8 * KiB,
            step_bytes=4 * KiB,
            grow_threshold=0.05,
        ).run(alacc_layout.entries, alacc_layout.reader)
        assert alacc_layout.reads < faa_layout.reads
