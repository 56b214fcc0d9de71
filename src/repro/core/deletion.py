"""GC-free deletion of expired backup versions (paper §4.5 / §5.5).

Because the chunk filter stores every cold set in its own archival
containers, the chunks *exclusive* to version ``v`` are precisely the
archival containers written when ``v``'s chunks fell cold (their "last
version" tag is ``v``).  Expiring the oldest retained version is therefore:

1. delete its recipe (nothing points backwards in the chain);
2. delete the archival containers tagged with it (no chunk detection —
   no newer version references them, by the §3 observation made structural).

No garbage collection, no copying — the paper's "almost zero" deletion cost.

The recipe goes first so that the order is crash-safe: the version stops
being listed before any of its chunks can go missing, and a deletion tag
older than every retained recipe is exactly an expiry that died half way
(:meth:`DeletionManager.finish_interrupted` rolls it forward).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from ..errors import DeletionError
from ..storage.container_store import BackendContainerStore
from ..storage.recipe import BackendRecipeStore


def interrupted_expiries(tagged: Iterable[int], retained: Iterable[int]) -> List[int]:
    """The tagged versions whose expiry died after deleting the recipe.

    Only the oldest version is ever expired, so those are the tags *older
    than every retained recipe* (all of them when nothing is retained).  A
    recipe-less tag in the middle of the chain is a lost recipe, not an
    expiry: its containers hold chunks that older retained versions still
    read (a tag is a *last*-version tag), so it is left for ``verify``.
    """
    floor = min(retained, default=None)
    return sorted(v for v in tagged if floor is None or v < floor)


@dataclass
class DeletionStats:
    #: The version one :meth:`DeletionManager.delete_version` call expired
    #: (``None`` on the manager's running totals).
    version_id: Optional[int] = None
    versions_deleted: int = 0
    containers_deleted: int = 0
    bytes_reclaimed: int = 0
    delete_seconds: float = 0.0


class DeletionManager:
    """Tracks archival containers by the version whose expiry frees them."""

    def __init__(self, containers: BackendContainerStore, recipes: BackendRecipeStore) -> None:
        self.containers = containers
        self.recipes = recipes
        #: last-version tag -> archival container IDs holding its cold set.
        self._tagged: Dict[int, List[int]] = {}
        self.stats = DeletionStats()

    def tag_containers(self, last_version: int, container_ids: List[int]) -> None:
        """Record that these archival containers hold ``last_version``'s cold set."""
        if container_ids:
            self._tagged.setdefault(last_version, []).extend(container_ids)

    def tagged_versions(self) -> List[int]:
        return sorted(self._tagged)

    def containers_for(self, version: int) -> List[int]:
        return list(self._tagged.get(version, []))

    def finish_interrupted(self, retained: Iterable[int]) -> int:
        """Roll forward expiries that died after deleting their recipe.

        ``retained`` is the version ids that still have one.  Every tag
        :func:`interrupted_expiries` picks is dropped together with
        whichever of its containers are still stored; returns how many
        tags that was.
        """
        orphaned = interrupted_expiries(self._tagged, retained)
        for version in orphaned:
            for cid in self._tagged.pop(version):
                if cid in self.containers:
                    self.containers.delete(cid)
        return len(orphaned)

    # ------------------------------------------------------------------
    def delete_version(
        self, version: int, demotion_horizon: int, retained: List[int]
    ) -> DeletionStats:
        """Expire ``version``; it must be the oldest retained one.

        Args:
            version: the version to expire.
            demotion_horizon: the newest version whose cold set has already
                been demoted (``newest_backed_up - history_depth``).  Deleting
                a version whose exclusive chunks are still sitting in active
                containers would corrupt newer versions, so it is refused.
            retained: the version ids with a stored recipe, oldest first
                (the caller's one listing of the recipe store).

        Returns per-call deletion statistics.
        """
        started = time.perf_counter()
        if version not in retained:
            raise DeletionError(f"version {version} is not retained")
        if version != retained[0]:
            raise DeletionError(
                f"only the oldest retained version ({retained[0]}) can be "
                f"expired; got {version}"
            )
        if version > demotion_horizon:
            raise DeletionError(
                f"version {version}'s exclusive chunks have not been demoted "
                f"yet (horizon {demotion_horizon}); back up more versions or "
                "retire the system first"
            )
        call_stats = DeletionStats(version_id=version)
        self.recipes.delete(version)
        for cid in self._tagged.pop(version, []):
            # The entry table says how many bytes go: no payload is decoded.
            call_stats.bytes_reclaimed += self.containers.used_bytes(cid)
            self.containers.delete(cid)
            call_stats.containers_deleted += 1
        call_stats.versions_deleted = 1
        call_stats.delete_seconds = time.perf_counter() - started

        self.stats.versions_deleted += call_stats.versions_deleted
        self.stats.containers_deleted += call_stats.containers_deleted
        self.stats.bytes_reclaimed += call_stats.bytes_reclaimed
        self.stats.delete_seconds += call_stats.delete_seconds
        return call_stats
