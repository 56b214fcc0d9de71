"""Tests for the recipe chain and Algorithm 1 (§4.3, Figure 7)."""

import pytest

from repro.chunking.stream import synthetic_fingerprint as fp
from repro.core.recipe_chain import RecipeChain
from repro.errors import RecipeError
from repro.storage.recipe import ACTIVE_CID, MemoryRecipeStore, Recipe


def fresh_recipe(version, tokens):
    recipe = Recipe(version)
    for t in tokens:
        recipe.append(fp(t), 100, ACTIVE_CID)
    return recipe


@pytest.fixture
def chain():
    return RecipeChain(MemoryRecipeStore())


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
        """After demoting V3's cold set, R_3 entries become archival or -4."""
        chain.write_fresh(fresh_recipe(3, [1, 2, 3]))
        chain.write_fresh(fresh_recipe(4, [2, 3, 4]))
        moved = {fp(1): 10}  # chunk 1 went to archival container 10
        rewritten = chain.update_previous(3, moved, next_version=4)
        assert rewritten == 3
        updated = chain.recipes.peek(3)
        cids = {e.fingerprint: e.cid for e in updated.entries}
        assert cids[fp(1)] == 10
        assert cids[fp(2)] == -4
        assert cids[fp(3)] == -4

    def test_positive_entries_untouched(self, chain):
        recipe = Recipe(2)
        recipe.append(fp(1), 100, 5)
        recipe.append(fp(2), 100, ACTIVE_CID)
        chain.recipes.write(recipe)
        chain.update_previous(2, {}, next_version=3)
        cids = [e.cid for e in chain.recipes.peek(2).entries]
        assert cids == [5, -3]

    def test_missing_recipe_raises(self, chain):
        with pytest.raises(RecipeError):
            chain.update_previous(9, {}, next_version=10)

    def test_stats(self, chain):
        chain.write_fresh(fresh_recipe(1, [1]))
        chain.update_previous(1, {fp(1): 3}, next_version=2)
        assert chain.stats.previous_updates == 1
        assert chain.stats.entries_rewritten == 1


def build_chained_history(chain):
    """Three versions with the canonical chain shape:

    v1 = {1, 2, 3}; v2 = {2, 3, 4}; v3 = {3, 4, 5}.
    Chunk 1 archived to container 11 after v2; chunk 2 to 12 after v3.
    Chunks 3, 4, 5 still hot (active).
    """
    chain.write_fresh(fresh_recipe(1, [1, 2, 3]))
    chain.write_fresh(fresh_recipe(2, [2, 3, 4]))
    chain.update_previous(1, {fp(1): 11}, next_version=2)
    chain.write_fresh(fresh_recipe(3, [3, 4, 5]))
    chain.update_previous(2, {fp(2): 12}, next_version=3)
    return chain


class TestFlatten:
    def test_resolves_whole_chain(self, chain):
        build_chained_history(chain)
        chain.flatten()
        r1 = {e.fingerprint: e.cid for e in chain.recipes.peek(1).entries}
        assert r1[fp(1)] == 11  # archived
        assert r1[fp(2)] == 12  # archived one hop later
        assert r1[fp(3)] == -3  # still hot -> points at the newest recipe
        r2 = {e.fingerprint: e.cid for e in chain.recipes.peek(2).entries}
        assert r2[fp(2)] == 12
        assert r2[fp(3)] == -3 and r2[fp(4)] == -3

    def test_newest_recipe_keeps_active_zeroes(self, chain):
        build_chained_history(chain)
        chain.flatten()
        assert all(e.cid == ACTIVE_CID for e in chain.recipes.peek(3).entries)

    def test_idempotent(self, chain):
        build_chained_history(chain)
        first = chain.flatten()
        second = chain.flatten()
        assert first > 0
        assert second == 0

    def test_empty_store_is_noop(self, chain):
        assert chain.flatten() == 0

    def test_multi_hop_gap_resolved(self, chain):
        """A stale -old pointer left by an earlier flatten still resolves."""
        chain.write_fresh(fresh_recipe(1, [1]))
        chain.write_fresh(fresh_recipe(2, [1]))
        chain.update_previous(1, {}, next_version=2)
        chain.flatten()  # R1: fp1 -> -2
        chain.write_fresh(fresh_recipe(3, [2]))
        chain.update_previous(2, {fp(1): 20}, next_version=3)
        chain.flatten()
        r1 = chain.recipes.peek(1).entries[0]
        assert r1.cid == 20
