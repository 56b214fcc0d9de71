"""Tests for the active-container pool and chunk filter (§4.2, Figure 6)."""

import pytest

from repro.chunking.stream import Chunk, synthetic_fingerprint as fp
from repro.core.chunk_filter import ActiveContainerPool
from repro.core.double_cache import CacheEntry
from repro.errors import StorageError, UnknownContainerError
from repro.storage.backend import MemoryBackend
from repro.storage.container_store import BackendContainerStore

KB = 1024


def make_pool(capacity=8 * KB, threshold=0.5):
    store = BackendContainerStore(MemoryBackend(), capacity=capacity)
    return ActiveContainerPool(store, compaction_threshold=threshold), store


def put(pool, token, size=KB):
    return pool.store_chunk(Chunk(fp(token), size))


class TestStoreChunk:
    def test_fills_open_container_then_rolls(self):
        pool, _ = make_pool(capacity=4 * KB)
        cids = [put(pool, t) for t in range(6)]
        assert cids == [1, 1, 1, 1, 2, 2]
        assert pool.container_count() == 2

    def test_location_map_tracks_chunks(self):
        pool, _ = make_pool()
        put(pool, 1)
        assert pool.location[fp(1)] == 1

    def test_oversized_chunk_rejected(self):
        pool, _ = make_pool(capacity=2 * KB)
        with pytest.raises(StorageError):
            put(pool, 1, size=3 * KB)

    def test_hot_bytes(self):
        pool, _ = make_pool()
        put(pool, 1)
        put(pool, 2)
        assert pool.hot_bytes() == 2 * KB


class TestDemote:
    def test_moves_cold_to_archival(self):
        pool, store = make_pool(capacity=4 * KB)
        for t in range(4):
            put(pool, t)
        pool.end_version()
        cold = {fp(1): CacheEntry(KB, 1), fp(3): CacheEntry(KB, 1)}
        moved, written = pool.demote(cold)
        assert set(moved) == {fp(1), fp(3)}
        assert len(written) == 1
        archived = store.peek(written[0])
        assert fp(1) in archived and fp(3) in archived
        assert archived.sealed

    def test_demoted_chunks_leave_active_pool(self):
        pool, _ = make_pool(capacity=4 * KB)
        for t in range(4):
            put(pool, t)
        pool.end_version()
        pool.demote({fp(1): CacheEntry(KB, 1)})
        assert fp(1) not in pool.location
        assert fp(0) in pool.location

    def test_emptied_active_containers_dropped(self):
        pool, _ = make_pool(capacity=2 * KB)
        put(pool, 1)
        put(pool, 2)  # container 1 full
        put(pool, 3)  # container 2
        pool.end_version()
        pool.demote({fp(1): CacheEntry(KB, 1), fp(2): CacheEntry(KB, 1)})
        assert 1 not in pool
        assert pool.container_count() == 1

    def test_already_archival_entry_skipped(self):
        pool, store = make_pool(capacity=4 * KB)
        # Simulate a primed cache entry pointing at an archival container.
        archive = store.allocate()
        archive.add(Chunk(fp(9), KB))
        store.write(archive)
        moved, written = pool.demote({fp(9): CacheEntry(KB, archive.container_id)})
        assert moved == {fp(9): archive.container_id}
        assert written == []

    def test_unknown_container_raises(self):
        pool, _ = make_pool()
        with pytest.raises(UnknownContainerError):
            pool.demote({fp(1): CacheEntry(KB, 77)})

    def test_stats_track_moves(self):
        pool, _ = make_pool(capacity=4 * KB)
        for t in range(4):
            put(pool, t)
        pool.end_version()
        pool.demote({fp(0): CacheEntry(KB, 1)})
        assert pool.stats.cold_chunks_moved == 1
        assert pool.stats.cold_bytes_moved == KB
        assert pool.stats.archival_containers_written == 1
        assert pool.stats.move_seconds > 0

    def test_multi_container_demotion(self):
        pool, store = make_pool(capacity=2 * KB)
        for t in range(8):
            put(pool, t)
        pool.end_version()
        cold = {fp(t): CacheEntry(KB, 1 + t // 2) for t in range(6)}
        moved, written = pool.demote(cold)
        assert len(moved) == 6
        # 6 KB of cold chunks at 2 KB capacity -> 3 archival containers.
        assert len(written) == 3


class TestCompact:
    def test_merges_sparse_containers(self):
        pool, _ = make_pool(capacity=4 * KB, threshold=0.6)
        for t in range(8):
            put(pool, t)  # two full containers
        pool.end_version()
        # Demote half of each container -> both 50% utilised (sparse).
        pool.demote({fp(t): CacheEntry(KB, 1 + t // 4) for t in (0, 1, 4, 5)})
        assert pool.container_count() == 2
        relocations = pool.compact()
        assert set(relocations) == {fp(2), fp(3), fp(6), fp(7)}
        assert pool.container_count() == 1
        merged_cid = next(iter(relocations.values()))
        assert all(cid == merged_cid for cid in relocations.values())
        assert pool.location[fp(2)] == merged_cid

    def test_single_sparse_container_not_churned(self):
        pool, _ = make_pool(capacity=4 * KB, threshold=0.9)
        put(pool, 1)
        pool.end_version()
        assert pool.compact() == {}

    def test_dense_containers_untouched(self):
        pool, _ = make_pool(capacity=4 * KB, threshold=0.5)
        for t in range(8):
            put(pool, t)
        pool.end_version()
        assert pool.compact() == {}
        assert pool.container_count() == 2

    def test_stats_track_compactions(self):
        pool, _ = make_pool(capacity=4 * KB, threshold=0.6)
        for t in range(8):
            put(pool, t)
        pool.end_version()
        pool.demote({fp(t): CacheEntry(KB, 1 + t // 4) for t in (0, 1, 4, 5)})
        pool.compact()
        assert pool.stats.compactions == 1
        assert pool.stats.containers_merged == 2

    def test_invalid_threshold_rejected(self):
        store = BackendContainerStore(MemoryBackend())
        with pytest.raises(StorageError):
            ActiveContainerPool(store, compaction_threshold=1.5)


class TestReadPath:
    def test_read_bills_container_read(self):
        pool, store = make_pool()
        put(pool, 1)
        before = store.stats.snapshot()
        container = pool.read(1)
        assert fp(1) in container
        assert store.stats.delta(before).container_reads == 1

    def test_read_unknown_raises(self):
        pool, _ = make_pool()
        with pytest.raises(UnknownContainerError):
            pool.read(42)

    def test_utilizations(self):
        pool, _ = make_pool(capacity=4 * KB)
        put(pool, 1)
        assert pool.utilizations() == [0.25]
