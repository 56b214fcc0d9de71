"""HiDeStore's recipe chain and Algorithm 1 (paper §4.3, Figure 7).

A freshly written recipe ``R_n`` records every chunk with ``CID = 0``: all
its chunks are hot, i.e. in active containers.  When, after version ``n``,
the cold residue of version ``n - depth`` is demoted, only the *previous*
recipe ``R_{n-depth}`` is rewritten:

* demoted chunks get their archival container ID (positive);
* everything else — still hot — gets ``-(n-depth+1)``: "follow the chain to
  the next recipe".

Old recipes therefore form a forward-pointing chain.  Restoring an old
version would walk several recipes, so Algorithm 1 (:meth:`RecipeChain.flatten`)
is run offline before restores: it propagates concrete locations backwards
so every entry becomes either a positive archival CID or ``-newest``
("still in the active containers").  The chain remembers the version it was
last flattened through (:attr:`RecipeChain.flat_through`), so the engine
runs Algorithm 1 once per chain change, not once per restore.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from ..errors import RecipeError
from ..storage.recipe import ACTIVE_CID, Recipe, RecipeStore

#: :attr:`RecipeChain.flat_through` of a chain this process has changed since
#: its last flatten (version IDs start at 1).
NOT_FLAT = 0


@dataclass
class ChainStats:
    """Recipe-update accounting (Figure 12's 'update recipe' latency)."""

    previous_updates: int = 0
    flatten_runs: int = 0
    entries_rewritten: int = 0
    update_seconds: float = 0.0
    flatten_seconds: float = 0.0


class RecipeChain:
    """Maintains HiDeStore's chained recipes over a :class:`RecipeStore`."""

    def __init__(self, recipes: RecipeStore) -> None:
        self.recipes = recipes
        self.stats = ChainStats()
        #: Newest version of the last :meth:`flatten`, :data:`NOT_FLAT` once
        #: :meth:`write_fresh` or :meth:`update_previous` has changed the
        #: chain since, ``None`` while this process has done neither — then
        #: only the stored recipes say whether they are flat.  Deleting the
        #: oldest recipe rewrites no other, so expiry leaves the mark alone.
        #: In memory only: a mark in the checkpoint head would have readers
        #: writing the head, and could go stale behind a replication commit
        #: or a repair.
        self.flat_through: Optional[int] = None

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
        self.flat_through = NOT_FLAT

    def update_previous(
        self, previous_version: int, moved: Mapping[bytes, int], next_version: int
    ) -> int:
        """Rewrite ``R_previous`` after demotion (the per-version update).

        Args:
            previous_version: the recipe to update (``n - depth``).
            moved: fingerprint -> archival CID of the just-demoted cold set.
            next_version: the chain target for still-hot chunks
                (``previous_version + 1``).

        Returns the number of entries rewritten.
        """
        started = time.perf_counter()
        if previous_version not in self.recipes:
            raise RecipeError(f"no recipe R_{previous_version} to update")
        recipe = self.recipes.read(previous_version)
        rewritten = 0
        for entry in recipe.entries:
            if entry.cid > 0:
                continue  # already archival (possible with history depth > 1)
            archival = moved.get(entry.fingerprint)
            if archival is not None:
                entry.cid = archival
            else:
                entry.cid = -next_version
            rewritten += 1
        self.recipes.write(recipe)
        self.flat_through = NOT_FLAT
        self.stats.previous_updates += 1
        self.stats.entries_rewritten += rewritten
        self.stats.update_seconds += time.perf_counter() - started
        return rewritten

    # ------------------------------------------------------------------
    def flatten(self, newest: Optional[int] = None) -> int:
        """Algorithm 1: eliminate chain dependencies among all recipes.

        Walks recipes from the newest to the oldest, carrying a hash table of
        known archival locations; every chained entry is resolved to its
        archival CID, or to ``-newest`` when the chunk is still hot (active
        containers).  Safe to re-run at any time (idempotent).

        Returns the number of entries rewritten.
        """
        started = time.perf_counter()
        versions = self.recipes.version_ids()
        if not versions:
            return 0
        if newest is None:
            newest = versions[-1]
        known: Dict[bytes, int] = {}
        rewritten = 0
        for version in reversed(versions):
            if version > newest:
                continue
            recipe = self.recipes.read(version)
            changed = False
            for entry in recipe.entries:
                if entry.cid > 0:
                    known.setdefault(entry.fingerprint, entry.cid)
                    continue
                if version == newest:
                    continue  # the newest recipe's 0-entries stay active
                resolved = known.get(entry.fingerprint)
                target = resolved if resolved is not None else -newest
                if entry.cid != target:
                    entry.cid = target
                    changed = True
                    rewritten += 1
            if changed:
                self.recipes.write(recipe)
        self.flat_through = newest
        self.stats.flatten_runs += 1
        self.stats.entries_rewritten += rewritten
        self.stats.flatten_seconds += time.perf_counter() - started
        return rewritten
