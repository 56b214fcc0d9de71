"""Tests for recipes, entry CID semantics and recipe stores."""

import pytest

from repro.chunking.stream import synthetic_fingerprint
from repro.errors import RecipeError, StorageError
from repro.storage.backend import MemoryBackend, open_backend
from repro.storage.recipe import (
    BackendRecipeStore,
    FileRecipeStore,
    Recipe,
    pack_recipe,
    unpack_recipe,
)
from repro.units import RECIPE_ENTRY_SIZE


def build_recipe(version=1, tag="v1", cids=(1, 0, -3)):
    recipe = Recipe(version, tag)
    for i, cid in enumerate(cids):
        recipe.append(synthetic_fingerprint(i), 100 + i, cid)
    return recipe


class TestRecipe:
    def test_version_must_be_positive(self):
        with pytest.raises(RecipeError):
            Recipe(0)

    def test_default_tag(self):
        assert Recipe(7).tag == "v7"

    def test_logical_size_and_byte_size(self):
        recipe = build_recipe()
        assert recipe.logical_size == 100 + 101 + 102
        assert recipe.byte_size == 3 * RECIPE_ENTRY_SIZE

    def test_referenced_containers_in_first_use_order(self):
        recipe = Recipe(1)
        for cid in (5, 3, 5, 0, -2, 3):
            recipe.append(synthetic_fingerprint(cid + 10), 1, cid)
        assert recipe.referenced_containers() == [5, 3]

    def test_len_and_iter(self):
        recipe = build_recipe()
        assert len(recipe) == 3
        assert [e.size for e in recipe] == [100, 101, 102]


class TestSerialisation:
    def test_round_trip(self):
        recipe = build_recipe(version=9, tag="snapshot-9", cids=(1, 0, -3, 42))
        loaded = unpack_recipe(pack_recipe(recipe))
        assert loaded.version_id == 9
        assert loaded.tag == "snapshot-9"
        assert [e.cid for e in loaded] == [1, 0, -3, 42]
        assert [e.size for e in loaded] == [100, 101, 102, 103]
        assert [e.fingerprint for e in loaded] == [
            synthetic_fingerprint(i) for i in range(4)
        ]

    def test_negative_cids_survive(self):
        recipe = build_recipe(cids=(-1, -100))
        loaded = unpack_recipe(pack_recipe(recipe))
        assert [e.cid for e in loaded] == [-1, -100]

    def test_corrupt_blob_raises(self):
        with pytest.raises(RecipeError):
            unpack_recipe(b"garbage")

    def test_bad_magic_raises(self):
        blob = bytearray(pack_recipe(build_recipe()))
        blob[:4] = b"ZZZZ"
        with pytest.raises(RecipeError):
            unpack_recipe(bytes(blob))

    @pytest.mark.parametrize("cut", [1, RECIPE_ENTRY_SIZE, RECIPE_ENTRY_SIZE + 5])
    def test_a_short_row_table_raises_at_decode(self, cut):
        blob = pack_recipe(build_recipe(cids=(1, 2, 3, 4)))
        with pytest.raises(RecipeError, match="of 4 entries"):
            unpack_recipe(blob[:-cut])


class TestPackedRows:
    """A decoded recipe keeps its rows packed: sizes come off the row
    buffer, and only the entries asked for are built."""

    @pytest.fixture
    def built(self, monkeypatch):
        from repro.storage import recipe as recipe_module

        made = []

        class Counted(recipe_module.RecipeEntry):
            __slots__ = ()

            def __init__(self, *args):
                made.append(args[0])
                super().__init__(*args)

        monkeypatch.setattr(recipe_module, "RecipeEntry", Counted)
        return made

    def test_sizes_and_picked_rows_build_only_those(self, built):
        recipe = build_recipe(cids=tuple(range(1, 11)))
        built.clear()
        loaded = unpack_recipe(pack_recipe(recipe))
        assert built == [] and len(loaded) == 10
        assert loaded.sizes() == [100 + i for i in range(10)]
        assert loaded.logical_size == recipe.logical_size and built == []
        picked = loaded.columns(slice(3, 6))
        assert built == [] and len(picked) == 3  # columns build no entry
        assert loaded.columns() is loaded.columns() and built == []  # all rows decoded once
        assert list(picked) == recipe.entries[3:6] and len(built) == 3
        assert loaded.entries == recipe.entries and len(built) == 3 + 10
        again = loaded.columns(slice(3, 6))
        rows = list(zip(again.fingerprints, again.sizes, again.cids))
        assert rows == [(e.fingerprint, e.size, e.cid) for e in recipe.entries[3:6]]
        assert len(built) == 3 + 10  # read off the built entries

    def test_a_picked_file_matches_its_bytes(self):
        import random
        from itertools import accumulate

        from repro.repository import _covering_rows

        rng = random.Random(7)
        for _ in range(500):
            sizes = [rng.randrange(1, 9) for _ in range(rng.randrange(12))]
            stream = b"".join(bytes([i]) * size for i, size in enumerate(sizes))
            offset = rng.randrange(len(stream) + 2)
            length = rng.randrange(len(stream) + 2)
            start, stop, skip = _covering_rows(sizes, offset, length)
            starts = [0, *accumulate(sizes)]
            covered = stream[starts[min(start, len(sizes))] : starts[min(stop, len(sizes))]]
            assert covered[skip : skip + length] == stream[offset : offset + length]
            if length and offset < len(stream):  # no entry beyond the bytes
                assert starts[start] <= offset < starts[start + 1]
                assert starts[stop - 1] < offset + length <= starts[stop] or stop == len(sizes)


@pytest.fixture(params=["memory", "file", "sqlite"])
def store(request, tmp_path):
    if request.param == "memory":
        return BackendRecipeStore(MemoryBackend())
    if request.param == "sqlite":
        return BackendRecipeStore(open_backend(f"sqlite://{tmp_path}/r.db"), prefix="recipes/")
    return FileRecipeStore(str(tmp_path / "recipes"))


class TestRecipeStores:
    def test_write_read_round_trip(self, store):
        store.write(build_recipe(version=2))
        loaded = store.read(2)
        assert loaded.version_id == 2
        assert len(loaded) == 3

    def test_overwrite_refused(self, store):
        store.write(build_recipe(version=2, cids=(0,)))
        with pytest.raises(StorageError):  # a RecipeError, or the backend's refusal
            store.write(build_recipe(version=2, cids=(7,)))
        assert [e.cid for e in store.read(2)] == [0]

    def test_read_unknown_raises(self, store):
        with pytest.raises(RecipeError):
            store.read(5)

    def test_delete(self, store):
        store.write(build_recipe(version=1))
        store.delete(1)
        assert 1 not in store
        with pytest.raises(RecipeError):
            store.delete(1)

    def test_version_ids_sorted_and_latest(self, store):
        for v in (3, 1, 2):
            store.write(build_recipe(version=v))
        assert store.version_ids() == [1, 2, 3]
        assert store.latest_version() == 3

    def test_latest_of_empty_is_none(self, store):
        assert store.latest_version() is None

    def test_read_bills_recipe_read(self, store):
        store.write(build_recipe(version=1))
        before = store.stats.snapshot()
        store.read(1)
        assert store.stats.delta(before).recipe_reads == 1

    def test_peek_does_not_bill(self, store):
        store.write(build_recipe(version=1))
        before = store.stats.snapshot()
        store.peek(1)
        assert store.stats.delta(before).recipe_reads == 0
