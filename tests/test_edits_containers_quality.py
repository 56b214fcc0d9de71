"""Tests for edit-script workloads, container analytics, docstring coverage."""

import inspect

import pytest

from repro.analysis import (
    active_population,
    archival_population,
    utilization_histogram,
)
from repro.core import HiDeStore
from repro.errors import WorkloadError
from repro.index import ExactFullIndex
from repro.metrics import exact_dedup_ratio
from repro.pipeline import GCDeletionManager
from repro.pipeline.system import BackupSystem
from repro.units import KiB
from repro.workloads import (
    EditScriptWorkload,
    delete,
    insert,
    modify,
    move,
    revive,
)


class TestEditOps:
    def test_modify_replaces_tokens(self):
        workload = EditScriptWorkload(initial_chunks=5)
        workload.add_version(modify(1, 2))
        v1, v2 = workload.token_versions()
        assert v1 == [0, 1, 2, 3, 4]
        assert v2[0] == 0 and v2[3:] == [3, 4]
        assert v2[1] >= 5 and v2[2] >= 5  # fresh tokens

    def test_insert_and_delete(self):
        workload = EditScriptWorkload(initial_chunks=4)
        workload.add_version(insert(2, 2))
        workload.add_version(delete(0, 3))
        v1, v2, v3 = workload.token_versions()
        assert len(v2) == 6
        assert v3 == v2[3:]

    def test_move_preserves_content(self):
        workload = EditScriptWorkload(initial_chunks=6)
        workload.add_version(move(0, 2, 4))
        v1, v2 = workload.token_versions()
        assert sorted(v1) == sorted(v2)
        assert v2 == [2, 3, 4, 5, 0, 1]

    def test_revive_brings_back_a_chunk(self):
        workload = EditScriptWorkload(initial_chunks=3)
        workload.add_version(delete(0, 1))  # token 0 disappears
        workload.add_version(revive(0, position=2))
        versions = workload.token_versions()
        assert 0 not in versions[1]
        assert 0 in versions[2]

    def test_out_of_range_operations_rejected(self):
        workload = EditScriptWorkload(initial_chunks=3)
        workload.add_version(modify(5, 1))
        with pytest.raises(WorkloadError):
            workload.token_versions()

    def test_emptying_a_version_rejected(self):
        workload = EditScriptWorkload(initial_chunks=2)
        workload.add_version(delete(0, 2))
        with pytest.raises(WorkloadError):
            workload.token_versions()

    def test_streams_and_tags(self):
        workload = EditScriptWorkload(initial_chunks=3)
        workload.add_version(modify(0), tag="patch-1")
        streams = workload.all_versions()
        assert streams[0].tag == "edit-v1"
        assert streams[1].tag == "patch-1"
        assert len(streams[1]) == 3


class TestEditScriptsDriveSystems:
    def test_precise_dedup_accounting(self):
        """3 modified + 2 inserted chunks -> exactly 5 unique in v2."""
        workload = EditScriptWorkload(initial_chunks=50, mean_chunk_size=2 * KiB)
        workload.add_version(modify(10, 3), insert(0, 2))
        system = HiDeStore(container_size=64 * KiB)
        reports = [system.backup(s) for s in workload.versions()]
        assert reports[1].unique_chunks == 5
        assert reports[1].duplicate_chunks == 50 - 3

    def test_history_depth_with_surgical_revive(self):
        """A chunk absent exactly one version needs depth 2 to deduplicate."""
        base = EditScriptWorkload(initial_chunks=30, mean_chunk_size=2 * KiB)
        base.add_version(delete(0, 1))
        base.add_version(revive(0))

        def run(depth):
            system = HiDeStore(container_size=64 * KiB, history_depth=depth)
            for stream in base.versions():
                system.backup(stream)
            return system

        shallow, deep = run(1), run(2)
        assert deep.dedup_ratio > shallow.dedup_ratio
        assert abs(deep.dedup_ratio - exact_dedup_ratio(base.versions())) < 1e-12


class TestContainerAnalytics:
    def _hidestore(self, small_workload):
        system = HiDeStore(container_size=64 * KiB)
        for stream in small_workload.versions():
            system.backup(stream)
        return system

    def test_active_pool_is_dense(self, small_workload):
        system = self._hidestore(small_workload)
        active = active_population(system)
        assert active.count == system.pool.container_count()
        assert active.mean_utilization > 0.6
        assert active.dead_bytes == 0  # every hot chunk is referenced

    def test_archival_population_fully_live_in_hidestore(self, small_workload):
        system = self._hidestore(small_workload)
        archival = archival_population(system)
        assert archival.count == len(system.containers)
        assert archival.dead_fraction == 0.0  # cold sets are per-version

    def test_traditional_accumulates_dead_space_after_deletions(self, small_workload):
        system = BackupSystem(ExactFullIndex(), container_size=64 * KiB)
        for stream in small_workload.versions():
            system.backup(stream)
        # Delete without copy GC: dead bytes stay behind.
        gc = GCDeletionManager(system, utilization_threshold=0.0)
        gc.delete_version(1)
        gc.delete_version(2)
        population = archival_population(system)
        assert population.dead_bytes > 0
        assert 0.0 < population.dead_fraction < 1.0

    def test_histogram_buckets(self, small_workload):
        system = self._hidestore(small_workload)
        histogram = utilization_histogram(archival_population(system), buckets=4)
        assert len(histogram) == 4
        assert sum(histogram.values()) == len(system.containers)

    def test_histogram_validation(self):
        from repro.analysis import ContainerPopulation

        with pytest.raises(ValueError):
            utilization_histogram(ContainerPopulation(), buckets=0)


class TestDocstringCoverage:
    """Every public module, class and function carries a docstring."""

    def _public_objects(self):
        import pkgutil

        import repro

        for module_info in pkgutil.walk_packages(repro.__path__, "repro."):
            module = __import__(module_info.name, fromlist=["_"])
            yield module_info.name, module
            for name, obj in vars(module).items():
                if name.startswith("_"):
                    continue
                if getattr(obj, "__module__", None) != module_info.name:
                    continue
                if inspect.isclass(obj) or inspect.isfunction(obj):
                    yield f"{module_info.name}.{name}", obj

    def test_all_public_objects_documented(self):
        undocumented = [
            name
            for name, obj in self._public_objects()
            if not (obj.__doc__ or "").strip()
        ]
        assert undocumented == []
