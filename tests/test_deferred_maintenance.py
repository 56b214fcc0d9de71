"""Tests for deferred (pipelined/offline) filter maintenance (§5.4)."""

import pytest

from repro.core import HiDeStore, verify_system
from repro.units import KiB


def build(workload, **kwargs):
    system = HiDeStore(container_size=64 * KiB, **kwargs)
    for stream in workload.versions():
        system.backup(stream)
    return system


class TestDeferredQueue:
    def test_backups_queue_maintenance(self, small_workload):
        system = build(small_workload, deferred_maintenance=True)
        # 8 versions, depth 1: versions 2..8 each queued one unit of work.
        assert system.pending_maintenance == 7

    def test_run_maintenance_drains_queue(self, small_workload):
        system = build(small_workload, deferred_maintenance=True)
        assert system.run_maintenance() == 7
        assert system.pending_maintenance == 0
        assert system.run_maintenance() == 0  # idempotent

    def test_inline_mode_queues_nothing(self, small_workload):
        system = build(small_workload, deferred_maintenance=False)
        assert system.pending_maintenance == 0

    def test_no_archival_containers_until_maintenance(self, small_workload):
        system = build(small_workload, deferred_maintenance=True)
        assert len(system.containers) == 0
        system.run_maintenance()
        assert len(system.containers) > 0


class TestEquivalence:
    def test_dedup_ratio_identical(self, small_workload):
        deferred = build(small_workload, deferred_maintenance=True)
        inline = build(small_workload, deferred_maintenance=False)
        assert deferred.dedup_ratio == inline.dedup_ratio

    def test_restores_identical_after_maintenance(self, small_workload):
        deferred = build(small_workload, deferred_maintenance=True)
        inline = build(small_workload, deferred_maintenance=False)
        for version_id in (1, 4, 8):
            a = [c.fingerprint for c in deferred.restore_chunks(version_id)]
            b = [c.fingerprint for c in inline.restore_chunks(version_id)]
            assert a == b

    def test_verifies_after_drain(self, small_workload):
        system = build(small_workload, deferred_maintenance=True)
        system.run_maintenance()
        assert verify_system(system).ok


class TestAutomaticDraining:
    def test_restore_triggers_maintenance(self, small_workload):
        system = build(small_workload, deferred_maintenance=True)
        list(system.restore_chunks(1))
        assert system.pending_maintenance == 0

    def test_delete_triggers_maintenance(self, small_workload):
        system = build(small_workload, deferred_maintenance=True)
        stats = system.delete_oldest()
        assert system.pending_maintenance == 0
        assert stats.versions_deleted == 1

    def test_retire_triggers_maintenance(self, small_workload):
        system = build(small_workload, deferred_maintenance=True)
        system.retire()
        assert system.pending_maintenance == 0
        assert verify_system(system).ok

    def test_checkpoint_triggers_maintenance(self, small_workload, tmp_path):
        from repro.core import load_checkpoint, save_checkpoint

        system = build(small_workload, deferred_maintenance=True)
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(system, path)
        assert system.pending_maintenance == 0
        # The flag itself survives the round trip.
        loaded = load_checkpoint(path, system.containers, system.recipes)
        assert loaded.deferred_maintenance is True


class TestCriticalPathBenefit:
    def test_deferred_backups_skip_filter_work(self, small_workload):
        """The point of §5.4's pipelining: demotion leaves the backup path."""
        deferred = build(small_workload, deferred_maintenance=True)
        assert deferred.pool.stats.cold_chunks_moved == 0
        deferred.run_maintenance()
        inline = build(small_workload, deferred_maintenance=False)
        assert deferred.pool.stats.cold_chunks_moved == inline.pool.stats.cold_chunks_moved
