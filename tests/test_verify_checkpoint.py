"""Tests for integrity verification and HiDeStore checkpointing."""

import os

import pytest

from repro.chunking.stream import Chunk, synthetic_fingerprint as fp
from repro.core import (
    HiDeStore,
    load_checkpoint,
    save_checkpoint,
    verify_system,
)
from repro.errors import IndexError_, ReproError
from repro.index import ExactFullIndex
from repro.pipeline.system import BackupSystem
from repro.storage import FileContainerStore, FileRecipeStore
from repro.units import KiB
from tests.conftest import make_stream, random_payload_stream
from tests.verify_oracle import CORRUPTIONS, NotApplicable, assert_matches_oracle


class TestVerifyTraditional:
    def test_clean_system_verifies(self, small_workload):
        system = BackupSystem(ExactFullIndex(), container_size=64 * KiB)
        for stream in small_workload.versions():
            system.backup(stream)
        report = verify_system(system)
        assert report.ok
        assert report.versions_checked == 8
        assert report.entries_checked == sum(
            len(s) for s in small_workload.versions()
        )

    def test_detects_missing_container(self, small_workload):
        system = BackupSystem(ExactFullIndex(), container_size=64 * KiB)
        system.backup(small_workload.version(1))
        system.containers.delete(system.containers.container_ids()[0])
        report = verify_system(system)
        assert not report.ok
        assert any("missing container" in issue for issue in report.issues)

    def test_detects_corrupt_recipe_size(self, small_workload):
        system = BackupSystem(ExactFullIndex(), container_size=64 * KiB)
        system.backup(small_workload.version(1))
        system.recipes.peek(1).entries[0].size += 1
        report = verify_system(system)
        assert any("size mismatch" in issue for issue in report.issues)

    def test_summary_text(self, small_workload):
        system = BackupSystem(ExactFullIndex(), container_size=64 * KiB)
        system.backup(small_workload.version(1))
        assert "OK" in verify_system(system).summary()


class TestVerifyHiDeStore:
    def build(self, workload):
        system = HiDeStore(container_size=64 * KiB)
        for stream in workload.versions():
            system.backup(stream)
        return system

    def test_clean_system_verifies(self, small_workload):
        assert verify_system(self.build(small_workload)).ok

    def test_verifies_after_flatten_retire_delete(self, small_workload):
        system = self.build(small_workload)
        system.chain.flatten()
        assert verify_system(system).ok
        system.retire()
        assert verify_system(system).ok
        system.delete_oldest()
        assert verify_system(system).ok

    def test_detects_location_map_corruption(self, small_workload):
        system = self.build(small_workload)
        victim = next(iter(system.pool.location))
        system.pool.location[victim] = 999_999
        report = verify_system(system)
        assert not report.ok

    def test_detects_lost_active_chunk(self, small_workload):
        system = self.build(small_workload)
        victim = next(iter(system.pool.location))
        cid = system.pool.location.pop(victim)
        system.pool.peek(cid).remove(victim)
        report = verify_system(system)
        assert not report.ok


def _hidestore_metadata_only(workload):
    system = HiDeStore(container_size=64 * KiB)
    for stream in workload.versions():
        system.backup(stream)
    system.delete_oldest()
    return system


def _traditional_metadata_only(workload):
    system = BackupSystem(ExactFullIndex(), container_size=64 * KiB)
    for stream in workload.versions():
        system.backup(stream)
    return system


def _hidestore_with_payloads(_workload):
    system = HiDeStore(container_size=32 * KiB)
    for seed in range(4):
        system.backup(random_payload_stream(seed, chunks=40))
    system.delete_oldest()
    return system


class TestMatchesPerEntryOracle:
    """The container-major pass against the per-entry walk it replaced."""

    @pytest.mark.parametrize("deep", [False, True], ids=["shallow", "deep"])
    @pytest.mark.parametrize("damage", CORRUPTIONS, ids=lambda damage: damage.__name__)
    @pytest.mark.parametrize(
        "build",
        [_hidestore_metadata_only, _traditional_metadata_only, _hidestore_with_payloads],
        ids=lambda build: build.__name__.strip("_"),
    )
    def test_same_issue_set(self, small_workload, build, damage, deep):
        system = build(small_workload)
        try:
            damage(system)
        except NotApplicable as why:
            pytest.skip(str(why))
        assert_matches_oracle(system, damage, deep)

    def test_issues_come_in_recipe_order(self, small_workload):
        system = _hidestore_metadata_only(small_workload)
        victim = sorted(
            e.cid for v in system.recipes.version_ids()
            for e in system.recipes.peek(v).entries if e.cid > 0
        )[0]
        system.containers.delete(victim)
        system.pool.location[next(iter(system.pool.location))] = 999_999
        issues = verify_system(system).issues
        located = [i for i in issues if i.startswith("v")]
        keys = [tuple(map(int, i[1 : i.index("]")].split("["))) for i in located]
        assert len(keys) > 2 and keys == sorted(keys)
        assert issues[: len(located)] == located  # entries first, then the rest


class TestCheckpoint:
    def test_round_trip_equals_uninterrupted_run(self, small_workload, tmp_path):
        streams = small_workload.all_versions()
        containers = str(tmp_path / "c")
        recipes = str(tmp_path / "r")
        first = HiDeStore(
            container_store=FileContainerStore(containers),
            recipe_store=FileRecipeStore(recipes),
            container_size=64 * KiB,
        )
        for stream in streams[:4]:
            first.backup(stream)
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(first, path)

        resumed = load_checkpoint(
            path, FileContainerStore(containers), FileRecipeStore(recipes)
        )
        for stream in streams[4:]:
            resumed.backup(stream)

        reference = HiDeStore(container_size=64 * KiB)
        for stream in streams:
            reference.backup(stream)

        assert abs(resumed.dedup_ratio - reference.dedup_ratio) < 1e-12
        for version_id, stream in enumerate(streams, start=1):
            restored = list(resumed.restore_chunks(version_id))
            assert [c.fingerprint for c in restored] == stream.fingerprints()
        assert verify_system(resumed).ok

    def test_preserves_configuration(self, tmp_path):
        system = HiDeStore(
            container_store=FileContainerStore(str(tmp_path / "c")),
            recipe_store=FileRecipeStore(str(tmp_path / "r")),
            history_depth=2,
            compaction_threshold=0.42,
            container_size=32 * KiB,
            lookup_unit_bytes=2048,
        )
        system.backup(make_stream([1, 2, 3], size=1024))
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(system, path)
        loaded = load_checkpoint(
            path, FileContainerStore(str(tmp_path / "c")), FileRecipeStore(str(tmp_path / "r"))
        )
        assert loaded.history_depth == 2
        assert loaded.pool.compaction_threshold == 0.42
        assert loaded.container_size == 32 * KiB
        assert loaded.lookup_unit_bytes == 2048

    def test_preserves_payloads(self, tmp_path):
        system = HiDeStore(
            container_store=FileContainerStore(str(tmp_path / "c")),
            recipe_store=FileRecipeStore(str(tmp_path / "r")),
            container_size=16 * KiB,
        )
        stream = [Chunk(fp(t), 4, bytes([t] * 4)) for t in range(6)]
        from repro.chunking.stream import BackupStream

        system.backup(BackupStream(stream))
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(system, path)
        loaded = load_checkpoint(
            path, FileContainerStore(str(tmp_path / "c")), FileRecipeStore(str(tmp_path / "r"))
        )
        restored = list(loaded.restore_chunks(1))
        assert [c.data for c in restored] == [bytes([t] * 4) for t in range(6)]

    def test_preserves_deletion_tags(self, small_workload, tmp_path):
        system = HiDeStore(
            container_store=FileContainerStore(str(tmp_path / "c")),
            recipe_store=FileRecipeStore(str(tmp_path / "r")),
            container_size=64 * KiB,
        )
        for stream in small_workload.versions():
            system.backup(stream)
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(system, path)
        loaded = load_checkpoint(
            path, FileContainerStore(str(tmp_path / "c")), FileRecipeStore(str(tmp_path / "r"))
        )
        stats = loaded.delete_oldest()
        assert stats.versions_deleted == 1
        assert verify_system(loaded).ok

    def test_allocations_resume_above_checkpointed_ids(self, small_workload, tmp_path):
        system = HiDeStore(
            container_store=FileContainerStore(str(tmp_path / "c")),
            recipe_store=FileRecipeStore(str(tmp_path / "r")),
            container_size=64 * KiB,
        )
        for stream in small_workload.versions():
            system.backup(stream)
        highest = system.containers.next_id
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(system, path)
        loaded = load_checkpoint(
            path, FileContainerStore(str(tmp_path / "c")), FileRecipeStore(str(tmp_path / "r"))
        )
        assert loaded.containers.next_id >= highest

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ReproError):
            load_checkpoint(str(tmp_path / "nope.json"))

    def test_bad_format_raises(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ReproError):
            load_checkpoint(str(path))

    def test_export_mid_version_rejected(self):
        from repro.core.double_cache import DoubleHashCache

        cache = DoubleHashCache()
        cache.insert(fp(1), 100, 1)
        with pytest.raises(IndexError_):
            cache.export_tables()

    def test_restore_tables_requires_empty_cache(self):
        from repro.core.double_cache import DoubleHashCache

        cache = DoubleHashCache()
        cache.insert(fp(1), 100, 1)
        cache.end_version()
        with pytest.raises(IndexError_):
            cache.restore_tables([])
