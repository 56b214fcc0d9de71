"""Cross-backend equivalence: memory and file stores must behave identically.

The benchmarks run on in-memory stores; the CLI runs on file-backed ones.
Any behavioural drift between the two backends (serialisation quirks,
billing differences, ID allocation) would silently invalidate the
benchmark results for real deployments — so we assert equality of every
observable: dedup accounting, restore sequences, container-read counts,
and chain shapes.
"""

import pytest

from repro.core import HiDeStore, verify_system
from repro.index import ExactFullIndex
from repro.pipeline.system import BackupSystem
from repro.storage import (
    FileContainerStore,
    FileRecipeStore,
    MemoryContainerStore,
    MemoryRecipeStore,
)
from repro.units import KiB


def hidestore_pair(tmp_path):
    memory = HiDeStore(container_size=64 * KiB)
    file_backed = HiDeStore(
        container_store=FileContainerStore(str(tmp_path / "c"), capacity=64 * KiB),
        recipe_store=FileRecipeStore(str(tmp_path / "r")),
        container_size=64 * KiB,
    )
    return memory, file_backed


def traditional_pair(tmp_path):
    memory = BackupSystem(ExactFullIndex(), container_size=64 * KiB)
    file_backed = BackupSystem(
        ExactFullIndex(),
        container_store=FileContainerStore(str(tmp_path / "c"), capacity=64 * KiB),
        recipe_store=FileRecipeStore(str(tmp_path / "r")),
        container_size=64 * KiB,
    )
    return memory, file_backed


@pytest.mark.parametrize("pair_factory", [hidestore_pair, traditional_pair])
class TestBackendEquivalence:
    def test_identical_backup_accounting(self, pair_factory, tmp_path, small_workload):
        memory, file_backed = pair_factory(tmp_path)
        for stream in small_workload.versions():
            a = memory.backup(stream)
            b = file_backed.backup(stream)
            assert a.unique_chunks == b.unique_chunks
            assert a.duplicate_chunks == b.duplicate_chunks
            assert a.stored_bytes == b.stored_bytes
        assert memory.dedup_ratio == file_backed.dedup_ratio
        assert len(memory.containers) == len(file_backed.containers)

    def test_identical_restore_sequences_and_reads(
        self, pair_factory, tmp_path, small_workload
    ):
        memory, file_backed = pair_factory(tmp_path)
        for stream in small_workload.versions():
            memory.backup(stream)
            file_backed.backup(stream)
        for version_id in (1, 4, 8):
            mem_before = memory.io.snapshot()
            file_before = file_backed.io.snapshot()
            a = [c.fingerprint for c in memory.restore_chunks(version_id)]
            b = [c.fingerprint for c in file_backed.restore_chunks(version_id)]
            assert a == b
            assert (
                memory.io.delta(mem_before).container_reads
                == file_backed.io.delta(file_before).container_reads
            )

    def test_both_verify_clean(self, pair_factory, tmp_path, small_workload):
        memory, file_backed = pair_factory(tmp_path)
        for stream in small_workload.versions():
            memory.backup(stream)
            file_backed.backup(stream)
        assert verify_system(memory).ok
        assert verify_system(file_backed).ok


class TestHiDeStoreChainEquivalence:
    def test_identical_recipe_chains(self, tmp_path, small_workload):
        memory, file_backed = hidestore_pair(tmp_path)
        for stream in small_workload.versions():
            memory.backup(stream)
            file_backed.backup(stream)
        flat_memory, flat_file = memory.chain.flatten(), file_backed.chain.flatten()
        for version_id in memory.recipes.version_ids():
            for a, b in (
                (memory.recipes.peek(version_id), file_backed.recipes.peek(version_id)),
                (flat_memory[version_id], flat_file[version_id]),
            ):
                assert [(e.fingerprint, e.size, e.cid) for e in a.entries] == [
                    (e.fingerprint, e.size, e.cid) for e in b.entries
                ]

    def test_identical_deletion_outcomes(self, tmp_path, small_workload):
        memory, file_backed = hidestore_pair(tmp_path)
        for stream in small_workload.versions():
            memory.backup(stream)
            file_backed.backup(stream)
        a = memory.delete_oldest()
        b = file_backed.delete_oldest()
        assert a.containers_deleted == b.containers_deleted
        assert a.bytes_reclaimed == b.bytes_reclaimed
        assert memory.recipes.version_ids() == file_backed.recipes.version_ids()
