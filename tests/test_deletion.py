"""Tests for GC-free expired-version deletion (§4.5, §5.5)."""

import os

import pytest

from repro.core.deletion import interrupted_expiries
from repro.core.hidestore import HiDeStore
from repro.errors import DeletionError, VersionNotFoundError
from repro.repository import LocalRepository
from repro.storage.backend import clear_backend_wrapper, install_backend_wrapper
from repro.units import KiB


def build(workload, **kwargs):
    system = HiDeStore(container_size=64 * KiB, **kwargs)
    for stream in workload.versions():
        system.backup(stream)
    return system


class TestInterruptedExpiry:
    """Which recipe-less tags an open may roll forward (``finish_interrupted``)."""

    def test_only_tags_older_than_every_retained_recipe(self):
        assert interrupted_expiries([1, 2, 3, 5], retained=[3, 4, 6]) == [1, 2]
        assert interrupted_expiries([3, 5], retained=[3, 4, 6]) == []  # 5: a lost recipe
        assert interrupted_expiries([2, 1], retained=[]) == [1, 2]  # nothing left to read them

    def test_a_lost_middle_recipe_costs_no_container(self, small_workload):
        system = build(small_workload)
        tagged = system.deletion.tagged_versions()
        retained = system.version_ids()
        middle = tagged[len(tagged) // 2]
        assert retained[0] < middle < retained[-1]
        stored = set(system.containers.container_ids())
        expected = {v: list(system.restore_chunks(v)) for v in retained}
        lost = system.recipes.peek(middle)
        system.recipes.delete(middle)  # damage, not an expiry

        assert system.deletion.finish_interrupted(system.version_ids()) == 0
        assert system.deletion.tagged_versions() == tagged
        assert set(system.containers.container_ids()) == stored
        system.recipes.write(lost)  # repaired (from a mirror, say): nothing was lost
        for version_id in retained:  # the older ones read the containers tagged ``middle``
            assert list(system.restore_chunks(version_id)) == expected[version_id]

    def test_an_expiry_that_lost_only_its_recipe_is_finished(self, small_workload):
        system = build(small_workload)
        oldest = system.version_ids()[0]
        doomed = system.deletion.containers_for(oldest)
        assert doomed
        system.recipes.delete(oldest)  # died right after the recipe

        assert system.deletion.finish_interrupted(system.version_ids()) == 1
        assert oldest not in system.deletion.tagged_versions()
        assert not [cid for cid in doomed if cid in system.containers]


class TestDeleteOldest:
    def test_deletes_recipe_and_containers(self, small_workload):
        system = build(small_workload)
        tagged = system.deletion.containers_for(1)
        stats = system.delete_oldest()
        assert 1 not in system.recipes
        assert stats.version_id == 1
        assert stats.versions_deleted == 1
        assert stats.containers_deleted == len(tagged)
        for cid in tagged:
            assert cid not in system.containers

    def test_reclaims_exclusive_bytes(self, small_workload):
        system = build(small_workload)
        before = system.stored_bytes()
        stats = system.delete_oldest()
        assert system.stored_bytes() == before - stats.bytes_reclaimed
        assert stats.bytes_reclaimed > 0

    def test_remaining_versions_restore_correctly(self, small_workload):
        system = build(small_workload)
        system.delete_oldest()
        system.delete_oldest()
        for version_id in system.version_ids():
            restored = list(system.restore_chunks(version_id))
            want = small_workload.version(version_id)
            assert [c.fingerprint for c in restored] == want.fingerprints()

    def test_sequential_deletion_down_to_horizon(self, small_workload):
        system = build(small_workload)
        horizon = system.demotion_horizon
        deletable = [v for v in system.version_ids() if v <= horizon]
        for _ in deletable:
            system.delete_oldest()
        assert system.version_ids()[0] > horizon

    def test_empty_system_raises(self):
        with pytest.raises(VersionNotFoundError):
            HiDeStore().delete_oldest()


class TestSafetyRails:
    def test_cannot_delete_beyond_demotion_horizon(self, small_workload):
        system = build(small_workload)
        # Versions 8 (newest) has not been demoted (depth 1 -> horizon 7).
        for _ in range(7):
            system.delete_oldest()
        with pytest.raises(DeletionError):
            system.delete_oldest()

    def test_cannot_delete_non_oldest(self, small_workload):
        system = build(small_workload)
        with pytest.raises(DeletionError):
            system.deletion.delete_version(3, system.demotion_horizon, system.version_ids())

    def test_cannot_delete_unknown_version(self, small_workload):
        system = build(small_workload)
        with pytest.raises(DeletionError):
            system.deletion.delete_version(99, system.demotion_horizon, system.version_ids())

    def test_retire_extends_horizon_to_newest(self, small_workload):
        system = build(small_workload)
        system.retire()
        assert system.demotion_horizon == 8
        for _ in range(8):
            system.delete_oldest()
        assert system.version_ids() == []


class TestNoGarbageCollection:
    def test_deletion_never_rewrites_containers(self, small_workload):
        """GC-free: deletion only removes containers, never copies chunks."""
        system = build(small_workload)
        writes_before = system.io.container_writes
        system.delete_oldest()
        assert system.io.container_writes == writes_before

    def test_deletion_is_fast(self, small_workload):
        system = build(small_workload)
        stats = system.delete_oldest()
        assert stats.delete_seconds < 0.1  # milliseconds, not seconds

    def test_deleted_containers_not_referenced_by_retained_recipes(self, small_workload):
        system = build(small_workload)
        tagged = set(system.deletion.containers_for(1))
        system.delete_oldest()
        flattened = system.chain.flatten().values()
        referenced = {e.cid for recipe in flattened for e in recipe.entries if e.cid > 0}
        assert referenced and not (referenced & tagged)


class TestHistoryDepthInteraction:
    def test_depth_two_horizon_trails_by_two(self, skip_workload):
        system = build(skip_workload, history_depth=2)
        assert system.demotion_horizon == 8 - 2

    def test_depth_two_deletion_preserves_skipped_chunks(self, skip_workload):
        system = build(skip_workload, history_depth=2)
        system.delete_oldest()
        for version_id in system.version_ids():
            restored = list(system.restore_chunks(version_id))
            assert len(restored) == len(skip_workload.version(version_id))


class ListingBackend:
    """Backend proxy that counts ``list`` calls."""

    def __init__(self, backend, listings):
        self._backend = backend
        self._listings = listings

    def __getattr__(self, name):
        return getattr(self._backend, name)

    def list(self, prefix=""):
        self._listings.append(prefix)
        return self._backend.list(prefix)


class TestOneListingPerExpiry:
    @pytest.mark.parametrize("scheme", ["file", "sqlite"])
    def test_delete_oldest_lists_the_recipes_once(self, tmp_path, scheme):
        spec = str(tmp_path / "repo") if scheme == "file" else f"sqlite://{tmp_path}/repo.db"
        listings = []
        install_backend_wrapper(lambda backend: ListingBackend(backend, listings))
        try:
            repo = LocalRepository(spec)
            for version in range(4):
                data = bytes([version]) * 50_000 + os.urandom(20_000)
                repo.backup_blocks([data], [("a.bin", len(data))], tag=f"v{version}")
            for oldest in (1, 2):
                del listings[:]
                assert repo.delete_oldest()["version_id"] == oldest
                assert listings == ["recipes/"]
            repo.close()
        finally:
            clear_backend_wrapper()
