"""Integration tests asserting the paper's evaluation claims (shapes).

Each test encodes one comparison the paper reports, at the repo's scaled
workload sizes.  Absolute values differ from the paper (simulated substrate,
scaled datasets); orderings and rough factors must hold.
"""

import pytest

from repro.core.hidestore import HiDeStore
from repro.metrics import exact_dedup_ratio
from repro.experiments import run_scheme
from repro.units import KiB
from repro.workloads import load_preset

CONTAINER = 512 * KiB
VERSIONS = 16
CHUNKS = 2000


def run(name, preset="kernel"):
    """One scheme under its §5.1 configuration, as the figures run it."""
    return run_scheme(name, preset, versions=VERSIONS, chunks=CHUNKS, container_size=CONTAINER)


@pytest.fixture(scope="module")
def systems():
    return {
        name: run(name)
        for name in ("ddfs", "sparse", "silo", "capping", "alacc", "hidestore")
    }


@pytest.fixture(scope="module")
def workload_exact_ratio():
    return exact_dedup_ratio(
        load_preset("kernel", versions=VERSIONS, chunks_per_version=CHUNKS).versions()
    )


class TestFigure8DedupRatio:
    def test_hidestore_matches_exact_dedup(self, systems, workload_exact_ratio):
        assert abs(systems["hidestore"].dedup_ratio - workload_exact_ratio) < 1e-9
        assert abs(systems["hidestore"].dedup_ratio - systems["ddfs"].dedup_ratio) < 1e-9

    def test_near_exact_schemes_lose_a_little(self, systems):
        assert systems["sparse"].dedup_ratio <= systems["ddfs"].dedup_ratio
        assert systems["silo"].dedup_ratio <= systems["ddfs"].dedup_ratio
        # ... but stay within a few points.
        assert systems["sparse"].dedup_ratio > systems["ddfs"].dedup_ratio - 0.05
        assert systems["silo"].dedup_ratio > systems["ddfs"].dedup_ratio - 0.05

    def test_rewriting_schemes_lose_more(self, systems):
        assert systems["capping"].dedup_ratio < systems["hidestore"].dedup_ratio
        assert systems["alacc"].dedup_ratio < systems["hidestore"].dedup_ratio


class TestFigure9LookupOverhead:
    def test_hidestore_needs_far_fewer_lookups_than_ddfs(self, systems):
        """Paper: HiDeStore reduces lookups by up to 71% vs DDFS."""
        assert (
            systems["hidestore"].report.lookups_per_gb
            < 0.5 * systems["ddfs"].report.lookups_per_gb
        )

    def test_hidestore_lookups_bounded_per_version(self, systems):
        per_version = [r.disk_index_lookups for r in systems["hidestore"].report.per_version]
        # Bounded by one recipe's size: essentially flat after version 2.
        assert max(per_version[1:]) <= min(per_version[1:]) * 1.5

    def test_ddfs_lookups_grow_with_fragmentation(self, systems):
        per_version = [r.disk_index_lookups for r in systems["ddfs"].report.per_version]
        early = sum(per_version[1:4]) / 3
        late = sum(per_version[-3:]) / 3
        assert late > early


class TestFigure10IndexOverhead:
    def test_ordering_ddfs_highest_hidestore_zero(self, systems):
        assert systems["hidestore"].report.index_bytes_per_mb == 0.0
        assert (
            systems["ddfs"].report.index_bytes_per_mb
            > systems["sparse"].report.index_bytes_per_mb
            > systems["hidestore"].report.index_bytes_per_mb
        )

    def test_silo_smaller_than_sparse(self, systems):
        """SiLo samples one fp per segment vs sparse's 1-in-N chunks."""
        assert (
            systems["silo"].report.index_bytes_per_mb
            < systems["sparse"].report.index_bytes_per_mb
        )


class TestFigure11RestorePerformance:
    def test_hidestore_wins_on_newest_version(self, systems):
        newest = VERSIONS
        hds = systems["hidestore"].restore(newest).speed_factor
        base = systems["ddfs"].restore(newest).speed_factor
        capping = systems["capping"].restore(newest).speed_factor
        alacc = systems["alacc"].restore(newest).speed_factor
        assert hds > base
        assert hds > capping
        assert hds > alacc

    def test_hidestore_sacrifices_old_versions(self, systems):
        hds_old = systems["hidestore"].restore(1).speed_factor
        base_old = systems["ddfs"].restore(1).speed_factor
        assert hds_old < base_old

    def test_traditional_baseline_degrades_over_versions(self, systems):
        base = systems["ddfs"]
        assert base.restore(VERSIONS).speed_factor < base.restore(1).speed_factor

    def test_hidestore_improves_toward_newest(self, systems):
        hds = systems["hidestore"]
        assert hds.restore(VERSIONS).speed_factor > hds.restore(1).speed_factor


class TestMacosHistoryDepth:
    def test_depth_two_closes_the_gap(self):
        workload_args = dict(versions=10, chunks_per_version=1500)
        exact = exact_dedup_ratio(load_preset("macos", **workload_args).versions())
        shallow = HiDeStore(container_size=CONTAINER, history_depth=1)
        for stream in load_preset("macos", **workload_args).versions():
            shallow.backup(stream)
        deep = HiDeStore(container_size=CONTAINER, history_depth=2)
        for stream in load_preset("macos", **workload_args).versions():
            deep.backup(stream)
        assert deep.dedup_ratio > shallow.dedup_ratio
        assert abs(deep.dedup_ratio - exact) < 1e-9


class TestSection55Deletion:
    def test_deletion_cost_is_negligible(self):
        system = run("hidestore")
        stats = system.delete_oldest()
        assert stats.delete_seconds < 0.05
        assert stats.containers_deleted >= 0
        # No container was rewritten (no GC traffic).
        writes = system.io.container_writes
        system.delete_oldest()
        assert system.io.container_writes == writes
