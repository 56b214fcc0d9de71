"""End-to-end tests for the HiDeStore system (§4)."""

import pytest

from repro.chunking.stream import BackupStream, Chunk, synthetic_fingerprint as fp
from repro.core.hidestore import HiDeStore
from repro.errors import ReproError, RestoreError, VersionNotFoundError
from repro.metrics import exact_dedup_ratio
from repro.restore import ContainerCacheRestore
from repro.units import KiB
from tests.conftest import make_stream


def run(workload, **kwargs):
    system = HiDeStore(container_size=kwargs.pop("container_size", 64 * KiB), **kwargs)
    for stream in workload.versions():
        system.backup(stream)
    return system


class TestBackup:
    def test_dedup_ratio_matches_exact(self, small_workload):
        system = run(small_workload)
        assert abs(system.dedup_ratio - exact_dedup_ratio(small_workload.versions())) < 1e-12

    def test_no_disk_index_lookups_beyond_prefetch(self, small_workload):
        system = run(small_workload)
        total_prefetch = sum(r.disk_index_lookups for r in system.report.per_version)
        # Bounded by ~one recipe per version in 4 KiB lookup units.
        per_version_entries = 400 * 28 / 4096
        assert total_prefetch <= (per_version_entries + 1) * 8

    def test_first_version_all_unique(self, small_workload):
        system = HiDeStore()
        report = system.backup(next(iter([small_workload.version(1)])))
        assert report.unique_chunks == report.total_chunks
        assert report.duplicate_chunks == 0

    def test_adjacent_versions_dedup(self, small_workload):
        system = HiDeStore()
        system.backup(small_workload.version(1))
        report = system.backup(small_workload.version(2))
        assert report.duplicate_chunks > report.unique_chunks

    def test_index_memory_is_zero(self, small_workload):
        system = run(small_workload)
        assert system.report.index_memory_bytes == 0

    def test_transient_cache_bounded_by_history(self, small_workload):
        system = run(small_workload)
        # T1 + T2 hold at most two versions' metadata at 28 B per entry.
        assert system.transient_cache_bytes <= 2 * 450 * 28

    def test_intra_version_duplicates_stored_once(self):
        system = HiDeStore(container_size=64 * KiB)
        stream = make_stream([1, 2, 1, 3, 1], size=1024)
        report = system.backup(stream)
        assert report.unique_chunks == 3
        assert report.duplicate_chunks == 2

    def test_containers_written_is_per_version_delta(self, small_workload):
        """Regression: this used to report the *cumulative* container count.

        ``containers_written`` must count only the archival containers this
        backup call produced (matching BackupSystem's delta semantics), so
        summing the per-version reports reproduces the store's total.
        """
        system = run(small_workload)
        per_version = [r.containers_written for r in system.report.per_version]
        assert sum(per_version) == len(system.containers)
        # Cumulative reporting would make the sequence non-decreasing and
        # its sum far larger than the store; deltas stay individually small.
        assert all(w <= len(system.containers) for w in per_version)

    def test_containers_written_deferred_attributed_to_drain(self, small_workload):
        """With deferred maintenance the delta is 0 until someone drains."""
        system = HiDeStore(container_size=64 * KiB, deferred_maintenance=True)
        reports = [system.backup(s) for s in small_workload.versions()]
        assert all(r.containers_written == 0 for r in reports)
        assert len(system.containers) == 0
        system.run_maintenance()
        assert len(system.containers) > 0


class TestRestore:
    def test_every_version_restores_exact_sequence(self, small_workload):
        system = run(small_workload)
        expected = {i + 1: s for i, s in enumerate(small_workload.versions())}
        for version_id in system.version_ids():
            restored = list(system.restore_chunks(version_id))
            want = expected[version_id]
            assert [c.fingerprint for c in restored] == want.fingerprints()
            assert sum(c.size for c in restored) == want.logical_size

    def test_restore_result_accounting(self, small_workload):
        system = run(small_workload)
        result = system.restore(8)
        assert result.chunks == len(small_workload.version(8))
        assert result.container_reads > 0
        assert result.speed_factor > 0

    def test_newest_version_restores_with_fewer_reads_than_oldest(self, small_workload):
        system = run(small_workload)
        newest = system.restore(8)
        oldest = system.restore(1)
        assert newest.speed_factor >= oldest.speed_factor

    def test_restore_with_custom_algorithm(self, small_workload):
        system = run(small_workload)
        restored = list(
            system.restore_chunks(3, restorer=ContainerCacheRestore(cache_containers=8))
        )
        assert [c.fingerprint for c in restored] == small_workload.version(3).fingerprints()

    def test_unknown_version_raises(self):
        with pytest.raises(VersionNotFoundError):
            HiDeStore().restore(1)

    def test_restore_without_flatten_of_newest_works(self, small_workload):
        system = run(small_workload)
        restored = list(system.restore_chunks(8))
        assert len(restored) == len(small_workload.version(8))

    def test_payload_round_trip(self):
        system = HiDeStore(container_size=16 * KiB)
        v1 = BackupStream(
            [Chunk(fp(t), 4, bytes([t] * 4)) for t in range(10)], tag="v1"
        )
        v2 = BackupStream(
            [Chunk(fp(t), 4, bytes([t] * 4)) for t in range(5, 15)], tag="v2"
        )
        system.backup(v1)
        system.backup(v2)
        out = list(system.restore_chunks(1))
        assert [c.data for c in out] == [bytes([t] * 4) for t in range(10)]


class TestHistoryDepth:
    def test_depth_two_recovers_skipped_chunks(self, skip_workload):
        exact = exact_dedup_ratio(skip_workload.versions())
        shallow = run(skip_workload, history_depth=1)
        deep = run(skip_workload, history_depth=2)
        assert deep.dedup_ratio > shallow.dedup_ratio
        assert abs(deep.dedup_ratio - exact) < 1e-12

    def test_depth_two_restores_all_versions(self, skip_workload):
        system = run(skip_workload, history_depth=2)
        for version_id in system.version_ids():
            restored = list(system.restore_chunks(version_id))
            assert len(restored) == len(skip_workload.version(version_id))


class TestRetireAndReopen:
    def test_retire_archives_everything(self, small_workload):
        system = run(small_workload)
        system.retire()
        assert system.pool.hot_bytes() == 0
        for version_id in system.version_ids():
            entries = system.recipes.peek(version_id).entries
            assert all(cid > 0 for cid in system.archival_cids(version_id, entries, system.recipes.peek))

    def test_retired_system_rejects_backup(self, small_workload):
        system = run(small_workload)
        system.retire()
        with pytest.raises(ReproError):
            system.backup(small_workload.version(1))

    def test_retired_system_still_restores(self, small_workload):
        system = run(small_workload)
        system.retire()
        for version_id in (1, 4, 8):
            restored = list(system.restore_chunks(version_id))
            assert [c.fingerprint for c in restored] == small_workload.version(
                version_id
            ).fingerprints()

    def test_retire_is_idempotent(self, small_workload):
        system = run(small_workload)
        system.retire()
        system.retire()

    def test_prime_from_recipe_resumes_dedup(self, small_workload):
        system = run(small_workload)
        system.retire()
        primed = system.prime_from_recipe()
        assert primed == len(small_workload.version(8))
        report = system.backup(small_workload.version(8))  # re-backup same data
        assert report.unique_chunks == 0
        assert report.duplicate_chunks == report.total_chunks

    def test_primed_version_restores(self, small_workload):
        system = run(small_workload)
        system.retire()
        system.prime_from_recipe()
        system.backup(small_workload.version(8))
        restored = list(system.restore_chunks(9))
        assert [c.fingerprint for c in restored] == small_workload.version(8).fingerprints()

    def test_prime_requires_archival_recipe(self, small_workload):
        system = run(small_workload)
        with pytest.raises(ReproError):
            system.prime_from_recipe()  # newest recipe still has active CIDs

    def test_prime_on_empty_store_raises(self):
        with pytest.raises(VersionNotFoundError):
            HiDeStore().prime_from_recipe()


class TestPhysicalLocality:
    def test_hot_set_stays_bounded(self, small_workload):
        """Active containers hold roughly one version's bytes, not history."""
        system = run(small_workload)
        version_bytes = small_workload.version(8).logical_size
        assert system.pool.hot_bytes() <= version_bytes * 1.5

    def test_stored_bytes_equals_unique_bytes(self, small_workload):
        system = run(small_workload)
        seen = set()
        unique = 0
        for stream in small_workload.versions():
            for chunk in stream:
                if chunk.fingerprint not in seen:
                    seen.add(chunk.fingerprint)
                    unique += chunk.size
        assert system.stored_bytes() == unique
