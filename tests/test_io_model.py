"""Tests for IOStats accounting and the analytic disk model."""

from repro.storage.io_model import DiskModel, IOStats
from repro.units import MiB


class TestIOStats:
    def test_note_methods(self):
        stats = IOStats()
        stats.note_container_read(100)
        stats.note_container_write(200)
        stats.note_recipe_read(10)
        stats.note_recipe_write(20)
        stats.note_index_lookup(3)
        assert stats.container_reads == 1
        assert stats.container_writes == 1
        assert stats.bytes_read == 110
        assert stats.bytes_written == 220
        assert stats.recipe_reads == 1
        assert stats.recipe_writes == 1
        assert stats.index_lookups == 3

    def test_snapshot_is_independent_copy(self):
        stats = IOStats()
        stats.note_container_read(100)
        snap = stats.snapshot()
        stats.note_container_read(100)
        assert snap.container_reads == 1
        assert stats.container_reads == 2

    def test_delta(self):
        stats = IOStats()
        stats.note_container_read(50)
        before = stats.snapshot()
        stats.note_container_read(50)
        stats.note_index_lookup()
        delta = stats.delta(before)
        assert delta.container_reads == 1
        assert delta.bytes_read == 50
        assert delta.index_lookups == 1


class TestDiskModel:
    def test_restore_seconds_combines_seeks_and_transfer(self):
        model = DiskModel(seek_seconds=0.01, transfer_bytes_per_second=100 * MiB)
        stats = IOStats()
        stats.note_container_read(100 * MiB)
        # 1 seek (0.01 s) + 100 MiB at 100 MiB/s (1 s).
        assert abs(model.restore_seconds(stats) - 1.01) < 1e-9

    def test_index_seconds(self):
        model = DiskModel(index_lookup_seconds=0.008)
        stats = IOStats()
        stats.note_index_lookup(100)
        assert abs(model.dedup_index_seconds(stats) - 0.8) < 1e-9

    def test_throughput(self):
        model = DiskModel(seek_seconds=0.0, transfer_bytes_per_second=100 * MiB)
        stats = IOStats()
        stats.note_container_read(50 * MiB)
        # Restored 100 MiB logical from 50 MiB read in 0.5 s -> 200 MiB/s.
        assert abs(model.throughput_mb_per_second(100 * MiB, stats) - 200.0) < 1e-6

    def test_throughput_zero_without_traffic(self):
        assert DiskModel().throughput_mb_per_second(0, IOStats()) == 0.0
