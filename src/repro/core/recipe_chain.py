"""HiDeStore's recipe chain and Algorithm 1 (paper §4.3, Figure 7).

A freshly written recipe ``R_n`` records every chunk with ``CID = 0``: all
its chunks are hot, i.e. in active containers.  When, after version ``n``,
the cold residue of version ``n - depth`` is demoted, the paper rewrites the
*previous* recipe ``R_{n-depth}``:

* demoted chunks get their archival container ID (positive);
* everything else — still hot — gets ``-(n-depth+1)``: "follow the chain to
  the next recipe".

Here no recipe is rewritten: :meth:`RecipeChain.update_previous` keeps the
demoted map (fingerprint → archival CID) as ``demoted[n-depth]``, which the
checkpoint persists (DESIGN §1.1).  The chained ``R_v`` is a view
(:meth:`RecipeChain.chained`); Algorithm 1 (:meth:`RecipeChain.flatten`)
runs over those views without writing, and restores never run it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Tuple

from ..errors import RecipeError
from ..storage.recipe import ACTIVE_CID, Recipe, RecipeEntry, RecipeStore

#: fingerprint -> (newest retained version holding it archival, that CID).
ArchivalIndex = Dict[bytes, Tuple[int, int]]


@dataclass
class ChainStats:
    """How often Algorithm 1 ran and the index was built."""

    flatten_runs: int = 0
    index_builds: int = 0


class RecipeChain:
    """Maintains HiDeStore's chain state over a write-once :class:`RecipeStore`."""

    def __init__(self, recipes: RecipeStore) -> None:
        self.recipes = recipes
        self.stats = ChainStats()
        #: version -> {fingerprint: archival CID} of the chunks demoted out
        #: of that version: what §4.3 would have written into ``R_version``.
        self.demoted: Dict[int, Dict[bytes, int]] = {}
        #: version -> head entry of its stored demotion part (checkpoint).
        self.persisted: Dict[int, Dict] = {}
        #: ``fp -> (version, cid)`` of the newest retained version holding
        #: ``fp`` archival, in ``demoted`` or as a positive recipe row.
        #: ``None`` until a restore needs it; rebuilt, never stored.
        self.index: Optional[ArchivalIndex] = None

    # ------------------------------------------------------------------
    def write_fresh(self, recipe: Recipe) -> None:
        """Persist a just-deduplicated version's recipe.

        Entries are ``0`` (the chunk sits in the active containers) or, for
        a reopened system whose hot set was already retired to archival
        containers, a positive archival CID.  Negative chain references are
        never valid in a fresh recipe.
        """
        for entry in recipe.entries:
            if entry.cid < ACTIVE_CID:
                raise RecipeError(
                    f"fresh HiDeStore recipes cannot chain; found cid={entry.cid}"
                )
        self.recipes.write(recipe)
        if self.index is not None:
            for entry in recipe.entries:
                if entry.cid > 0:
                    self.index[entry.fingerprint] = (recipe.version_id, entry.cid)

    def update_previous(self, previous_version: int, moved: Mapping[bytes, int]) -> None:
        """Record what demoting ``previous_version``'s cold set learned.

        ``moved`` (fingerprint -> archival CID) becomes
        ``demoted[previous_version]``, even when empty.  A version that
        already has a map keeps it: :meth:`HiDeStore.retire` records ahead
        of the updates, and a later cold residue of that version is a subset
        of what it recorded, at the same CIDs.
        """
        if previous_version not in self.recipes:
            raise RecipeError(f"no recipe R_{previous_version} to update")
        if previous_version not in self.demoted:
            self.demoted[previous_version] = dict(moved)
            if self.index is not None:
                for fp, cid in moved.items():
                    if self.index.get(fp, (0,))[0] <= previous_version:  # newest wins
                        self.index[fp] = (previous_version, cid)

    # ------------------------------------------------------------------
    def archival_index(self, load: Callable[[int], Recipe]) -> ArchivalIndex:
        """The index, built on first use newest→oldest from ``demoted`` and
        the positive rows of the recipes ``load`` reads (what recipes
        rewritten before the maps existed hold): first holder wins."""
        if self.index is None:
            index: ArchivalIndex = {}
            retained = set(self.recipes.version_ids())
            for version in sorted(retained.union(self.demoted), reverse=True):
                for fp, cid in self.demoted.get(version, {}).items():
                    index.setdefault(fp, (version, cid))
                if version in retained:
                    for entry in load(version).entries:
                        if entry.cid > 0:
                            index.setdefault(entry.fingerprint, (version, entry.cid))
            self.index = index
            self.stats.index_builds += 1
        return self.index

    def expire(self, version: int) -> None:
        """Forget what only ``version`` (the just-expired oldest) held."""
        self.demoted.pop(version, None)  # its part goes at the next save
        if self.index is not None:  # in place: half the cost of a rebuilt dict
            for fp in [fp for fp, known in self.index.items() if known[0] <= version]:
                del self.index[fp]

    # ------------------------------------------------------------------
    def chained(self, version: int) -> Recipe:
        """``R_version`` as §4.3 would have rewritten it: a fresh copy of the
        stored recipe whose non-positive rows take ``demoted[version]``'s
        CID, or ``-(version + 1)`` once the version has been updated."""
        recipe = self.recipes.read(version)
        own = self.demoted.get(version)
        entries = []
        for entry in recipe.entries:
            cid = entry.cid
            if cid <= 0 and own is not None:
                cid = own.get(entry.fingerprint, -(version + 1))
            entries.append(RecipeEntry(entry.fingerprint, entry.size, cid))
        return Recipe(version, recipe.tag, entries)

    def flatten(self) -> Dict[int, Recipe]:
        """Algorithm 1: the retained recipes with every chain resolved.

        Walks the :meth:`chained` views from the newest to the oldest,
        carrying a hash table of known archival locations; every chained
        entry is resolved to its archival CID, or to ``-newest`` when the
        chunk is still hot (active containers).  Writes nothing.

        Returns version -> flattened recipe.
        """
        versions = self.recipes.version_ids()
        known: Dict[bytes, int] = {}
        flattened: Dict[int, Recipe] = {}
        for version in reversed(versions):
            recipe = self.chained(version)
            for entry in recipe.entries:
                if entry.cid > 0:
                    known.setdefault(entry.fingerprint, entry.cid)
                elif version != versions[-1]:  # the newest recipe's 0-entries stay active
                    entry.cid = known.get(entry.fingerprint, -versions[-1])
            flattened[version] = recipe
        self.stats.flatten_runs += 1
        return flattened
