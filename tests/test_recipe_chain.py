"""Tests for the recipe chain and Algorithm 1 (§4.3, Figure 7)."""

import pytest

from repro.chunking.stream import synthetic_fingerprint as fp
from repro.core.recipe_chain import RecipeChain
from repro.errors import RecipeError
from repro.storage.backend import MemoryBackend
from repro.storage.recipe import ACTIVE_CID, BackendRecipeStore, Recipe, pack_recipe


def fresh_recipe(version, tokens):
    recipe = Recipe(version)
    for t in tokens:
        recipe.append(fp(t), 100, ACTIVE_CID)
    return recipe


@pytest.fixture
def chain():
    return RecipeChain(BackendRecipeStore(MemoryBackend()))


class TestWriteFresh:
    def test_accepts_all_active(self, chain):
        chain.write_fresh(fresh_recipe(1, [1, 2]))
        assert 1 in chain.recipes

    def test_accepts_archival_cids_for_reopened_systems(self, chain):
        recipe = Recipe(1)
        recipe.append(fp(1), 100, 7)
        chain.write_fresh(recipe)

    def test_rejects_chained_cids(self, chain):
        recipe = Recipe(1)
        recipe.append(fp(1), 100, -2)
        with pytest.raises(RecipeError):
            chain.write_fresh(recipe)


class TestUpdatePrevious:
    def test_figure_seven_semantics(self, chain):
        """After demoting V3's cold set, R_3 reads as archival or -4 rows,
        while the stored R_3 stays as written."""
        chain.write_fresh(fresh_recipe(3, [1, 2, 3]))
        chain.write_fresh(fresh_recipe(4, [2, 3, 4]))
        moved = {fp(1): 10}  # chunk 1 went to archival container 10
        chain.update_previous(3, moved)
        assert chain.demoted[3] == moved
        cids = {e.fingerprint: e.cid for e in chain.chained(3).entries}
        assert cids == {fp(1): 10, fp(2): -4, fp(3): -4}
        assert all(e.cid == ACTIVE_CID for e in chain.recipes.peek(3).entries)

    def test_positive_entries_untouched(self, chain):
        recipe = Recipe(2)
        recipe.append(fp(1), 100, 5)
        recipe.append(fp(2), 100, ACTIVE_CID)
        chain.recipes.write(recipe)
        chain.update_previous(2, {})
        assert chain.demoted[2] == {}  # an update that moved nothing is recorded too
        assert [e.cid for e in chain.chained(2).entries] == [5, -3]

    def test_missing_recipe_raises(self, chain):
        with pytest.raises(RecipeError):
            chain.update_previous(9, {})

    def test_stats(self, chain):
        chain.write_fresh(fresh_recipe(1, [1]))
        writes = chain.recipes.stats.recipe_writes
        chain.update_previous(1, {fp(1): 3})
        assert chain.recipes.stats.recipe_writes == writes  # nothing rewritten
        assert chain.stats.flatten_runs == chain.recipes.stats.index_builds == 0

    def test_a_recorded_map_is_kept(self, chain):
        """retire() records ahead of the updates; a later update of the same
        version (a subset, at the same CIDs) leaves the map as it was."""
        chain.write_fresh(fresh_recipe(1, [1, 2]))
        chain.update_previous(1, {fp(1): 3, fp(2): 4})
        chain.update_previous(1, {fp(2): 4})
        assert chain.demoted[1] == {fp(1): 3, fp(2): 4}


def build_chained_history(chain):
    """Three versions with the canonical chain shape:

    v1 = {1, 2, 3}; v2 = {2, 3, 4}; v3 = {3, 4, 5}.
    Chunk 1 archived to container 11 after v2; chunk 2 to 12 after v3.
    Chunks 3, 4, 5 still hot (active).
    """
    chain.write_fresh(fresh_recipe(1, [1, 2, 3]))
    chain.write_fresh(fresh_recipe(2, [2, 3, 4]))
    chain.update_previous(1, {fp(1): 11})
    chain.write_fresh(fresh_recipe(3, [3, 4, 5]))
    chain.update_previous(2, {fp(2): 12})
    return chain


def stored_bytes(chain):
    return {v: pack_recipe(chain.recipes.peek(v)) for v in chain.recipes.version_ids()}


class TestFlatten:
    def test_resolves_whole_chain(self, chain):
        build_chained_history(chain)
        flattened = chain.flatten()
        r1 = {e.fingerprint: e.cid for e in flattened[1].entries}
        assert r1[fp(1)] == 11  # archived
        assert r1[fp(2)] == 12  # archived one hop later
        assert r1[fp(3)] == -3  # still hot -> points at the newest recipe
        r2 = {e.fingerprint: e.cid for e in flattened[2].entries}
        assert r2[fp(2)] == 12
        assert r2[fp(3)] == -3 and r2[fp(4)] == -3

    def test_newest_recipe_keeps_active_zeroes(self, chain):
        build_chained_history(chain)
        assert all(e.cid == ACTIVE_CID for e in chain.flatten()[3].entries)

    def test_idempotent(self, chain):
        """Writes nothing, so a second run sees what the first saw."""
        build_chained_history(chain)
        before = stored_bytes(chain)
        first = chain.flatten()
        assert stored_bytes(chain) == before
        second = chain.flatten()
        assert {v: pack_recipe(r) for v, r in first.items()} == {
            v: pack_recipe(r) for v, r in second.items()
        }
        assert chain.stats.flatten_runs == 2

    def test_empty_store_is_noop(self, chain):
        assert chain.flatten() == {}

    def test_multi_hop_gap_resolved(self, chain):
        """A chunk hot through one update and demoted at the next resolves
        to that later archival CID."""
        chain.write_fresh(fresh_recipe(1, [1]))
        chain.write_fresh(fresh_recipe(2, [1]))
        chain.update_previous(1, {})
        assert chain.flatten()[1].entries[0].cid == -2
        chain.write_fresh(fresh_recipe(3, [2]))
        chain.update_previous(2, {fp(1): 20})
        assert chain.flatten()[1].entries[0].cid == 20
