"""Tests for the Container data structure (4 MiB chunk unit, paper Fig. 6)."""

import pytest

from repro.chunking.stream import Chunk, synthetic_fingerprint
from repro.errors import ContainerFullError, StorageError, UnknownChunkError
from repro.storage.container import Container
from repro.storage.container_store import pack_container, unpack_container


def chunk(token: int, size: int = 100, data: bool = False) -> Chunk:
    payload = bytes(size) if data else None
    return Chunk(synthetic_fingerprint(token), size, payload)


class TestConstruction:
    def test_positive_id_required(self):
        with pytest.raises(StorageError):
            Container(0)
        with pytest.raises(StorageError):
            Container(-3)

    def test_positive_capacity_required(self):
        with pytest.raises(StorageError):
            Container(1, capacity=0)

    def test_default_capacity_is_paper_4mib(self):
        assert Container(1).capacity == 4 * 1024 * 1024


class TestAdd:
    def test_add_assigns_sequential_offsets(self):
        c = Container(1, capacity=1000)
        assert c.add(chunk(1, 100)) == 0
        assert c.add(chunk(2, 250)) == 100
        assert c.index == {synthetic_fingerprint(1): (0, 100), synthetic_fingerprint(2): (100, 250)}
        assert c.used == 350
        assert c.chunk_count == 2

    def test_duplicate_fingerprint_rejected(self):
        c = Container(1, capacity=1000)
        c.add(chunk(1))
        with pytest.raises(StorageError):
            c.add(chunk(1))

    def test_overflow_rejected(self):
        c = Container(1, capacity=150)
        c.add(chunk(1, 100))
        with pytest.raises(ContainerFullError):
            c.add(chunk(2, 100))

    def test_fits_reflects_cursor_not_used(self):
        c = Container(1, capacity=300)
        c.add(chunk(1, 200))
        c.remove(synthetic_fingerprint(1))
        # 200 B freed but not contiguous until compaction (paper Fig. 6):
        # a reload packs the live chunks back to back.
        assert not c.fits(200)
        assert unpack_container(pack_container(c)).fits(200)

    def test_sealed_container_rejects_add(self):
        c = Container(1, capacity=1000)
        c.seal()
        with pytest.raises(StorageError):
            c.add(chunk(1))


class TestRemoveAndCompact:
    def test_remove_returns_slot(self):
        c = Container(1, capacity=1000)
        c.add(chunk(1, 120))
        slot = c.remove(synthetic_fingerprint(1))
        assert slot.size == 120
        assert c.used == 0
        assert c.is_empty

    def test_remove_unknown_raises(self):
        c = Container(1, capacity=1000)
        with pytest.raises(UnknownChunkError):
            c.remove(synthetic_fingerprint(9))

    def test_compact_reclaims_holes(self):
        c = Container(1, capacity=1000)
        for t in range(5):
            c.add(chunk(t, 100))
        c.remove(synthetic_fingerprint(1))
        c.remove(synthetic_fingerprint(3))
        assert (c.written, c.used) == (500, 300)
        reloaded = unpack_container(pack_container(c))  # a reload compacts
        assert (reloaded.written, reloaded.used) == (300, 300)
        # Remaining chunks still retrievable, offsets now contiguous.
        offsets = sorted(reloaded.index[synthetic_fingerprint(t)][0] for t in (0, 2, 4))
        assert offsets == [0, 100, 200]

    def test_compact_preserves_payloads(self):
        c = Container(1, capacity=1000)
        c.add(Chunk(synthetic_fingerprint(1), 3, b"abc"))
        c.add(Chunk(synthetic_fingerprint(2), 3, b"def"))
        c.remove(synthetic_fingerprint(1))
        reloaded = unpack_container(pack_container(c))
        assert reloaded.get_chunk(synthetic_fingerprint(2)).data == b"def"
        assert bytes(reloaded.payload) == b"def"

    def test_a_viewed_buffer_is_never_resized(self):
        c = Container(1, capacity=1000)
        c.add(Chunk(synthetic_fingerprint(1), 3, b"abc"))
        held = c.get_chunk(synthetic_fingerprint(1)).data  # a reader's view
        c.add(Chunk(synthetic_fingerprint(2), 3, b"def"))  # no BufferError
        assert held == b"abc" and len(held.obj) == 3  # the viewed buffer kept its size
        assert c.payload.obj is not held.obj and bytes(c.payload) == b"abcdef"
        del held
        buffer = c.payload.obj
        c.add(Chunk(synthetic_fingerprint(3), 3, b"ghi"))  # nothing views it: in place
        assert c.payload.obj is buffer and bytes(c.payload) == b"abcdefghi"

    def test_utilization(self):
        c = Container(1, capacity=1000)
        c.add(chunk(1, 250))
        assert c.utilization == 0.25
        c.remove(synthetic_fingerprint(1))
        assert c.utilization == 0.0


class TestReadPath:
    def test_contains_and_get(self):
        c = Container(1, capacity=1000)
        c.add(chunk(5, 64))
        assert synthetic_fingerprint(5) in c
        assert synthetic_fingerprint(6) not in c
        assert c.get_chunk(synthetic_fingerprint(5)).size == 64

    def test_get_unknown_raises(self):
        c = Container(1, capacity=1000)
        with pytest.raises(UnknownChunkError):
            c.get_chunk(synthetic_fingerprint(1))

    def test_get_chunk_materialises(self):
        c = Container(1, capacity=1000)
        c.add(Chunk(synthetic_fingerprint(7), 2, b"zz"))
        out = c.get_chunk(synthetic_fingerprint(7))
        assert out.data == b"zz"
        assert out.fingerprint == synthetic_fingerprint(7)

    def test_chunks_iterates_in_offset_order(self):
        c = Container(1, capacity=1000)
        for t in (3, 1, 2):
            c.add(chunk(t, 50))
        fps = [ch.fingerprint for ch in c.chunks()]
        assert fps == [synthetic_fingerprint(t) for t in (3, 1, 2)]

    def test_fingerprints_lists_live_chunks(self):
        c = Container(1, capacity=1000)
        c.add(chunk(1))
        c.add(chunk(2))
        c.remove(synthetic_fingerprint(1))
        assert c.fingerprints() == [synthetic_fingerprint(2)]
