"""The sync planner: diff two repository states into a resumable plan.

Pure data-in/data-out — the planner never touches the filesystem or the
network, so every diff decision is unit-testable.  The plan it emits is
O(delta): write-once objects — sealed archival containers (§4.2) and
checkpoint parts — present on the target with the right size are skipped,
digest-bearing objects ship only when their content moved, and objects that
vanished from the source (expired versions, §4.5) become deletions on the
mirror.

Ordering is the correctness story:

* **ships** run containers → manifests → checkpoint parts → recipes →
  checkpoint head.  Containers and manifests are invisible until a recipe
  references them, and a checkpoint part until the head names it, so they
  go straight into place (a reading open of the mirror deletes none of
  them — only a writer sweeps debris, ``repository._sweep_debris`` — and
  the commit checks the head's parts are there before it renames
  anything); recipes and the head are *staged* (shipped as
  ``*.staged`` files) because they define the mirror's visible state and
  must move together.
* **renames** (the commit) apply staged recipes oldest-first with the
  checkpoint head last, shrinking the window in which a new head recipe
  could be observed beside an old checkpoint to a couple of renames.
* **deletes** run recipes → manifests → containers → checkpoint parts the
  source no longer has, so the mirror never holds a recipe whose containers
  are already gone, and loses a part only after the head that named it.

A sync interrupted mid-transfer needs no journal replay to resume: the next
planner run diffs fresh states, sees the containers that already made it,
and re-plans only the remainder (reported as ``containers_skipped``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..storage.repo import CHECKPOINT_NAME
from .state import RepoState


@dataclass(frozen=True)
class ShipAction:
    """Copy one object from source to target."""

    kind: str
    name: str
    size: int
    digest: str = ""  #: expected content digest ("" for write-once objects)
    staged: bool = False  #: land as ``*.staged`` awaiting the commit


@dataclass(frozen=True)
class ObjectRef:
    """One (kind, name) pair inside the commit's rename/delete lists."""

    kind: str
    name: str


@dataclass
class SyncPlan:
    """Everything one sync will do, in execution order."""

    ships: List[ShipAction] = field(default_factory=list)
    renames: List[ObjectRef] = field(default_factory=list)
    deletes: List[ObjectRef] = field(default_factory=list)
    #: Source containers already on the target (the O(delta) evidence).
    containers_skipped: int = 0

    @property
    def empty(self) -> bool:
        return not (self.ships or self.renames or self.deletes)

    @property
    def needs_commit(self) -> bool:
        return bool(self.renames or self.deletes)

    @property
    def bytes_to_ship(self) -> int:
        return sum(action.size for action in self.ships)

    def summary(self) -> Dict:
        """A JSON-friendly digest of the plan (journal header, logs)."""
        per_kind: Dict[str, int] = {}
        for action in self.ships:
            per_kind[action.kind] = per_kind.get(action.kind, 0) + 1
        return {
            "ships": len(self.ships),
            "ships_by_kind": per_kind,
            "renames": len(self.renames),
            "deletes": len(self.deletes),
            "bytes_to_ship": self.bytes_to_ship,
            "containers_skipped": self.containers_skipped,
        }


def _want_ship(name: str, info: Dict, target_section: Dict) -> bool:
    have = target_section.get(name)
    if have is None:
        return True
    # Write-once objects carry no digest: same name + size means same
    # content.  A size mismatch means a foreign/corrupt file squatting on
    # the name — re-ship and overwrite it.
    return have.get("digest") != info.get("digest") or have.get("size") != info["size"]


class SyncPlanner:
    """Diffs a source state against a target state into a :class:`SyncPlan`."""

    def plan(self, source: RepoState, target: RepoState) -> SyncPlan:
        plan = SyncPlan()

        # Ships, in visibility-safe order.
        for name, info in source["containers"].items():
            if _want_ship(name, info, target["containers"]):
                plan.ships.append(ShipAction("container", name, info["size"]))
            else:
                plan.containers_skipped += 1
        for name, info in source["manifests"].items():
            if _want_ship(name, info, target["manifests"]):
                plan.ships.append(
                    ShipAction("manifest", name, info["size"], info["digest"])
                )
        changed_recipes = [
            name
            for name, info in source["recipes"].items()
            if _want_ship(name, info, target["recipes"])
        ]
        for name, info in source["checkpoint"].items():
            if name != CHECKPOINT_NAME and _want_ship(name, info, target["checkpoint"]):
                plan.ships.append(ShipAction("checkpoint", name, info["size"]))
        for name in changed_recipes:
            info = source["recipes"][name]
            plan.ships.append(
                ShipAction("recipe", name, info["size"], info["digest"], staged=True)
            )
        head = source["checkpoint"].get(CHECKPOINT_NAME)
        ship_head = head is not None and _want_ship(
            CHECKPOINT_NAME, head, target["checkpoint"]
        )
        if ship_head:
            plan.ships.append(
                ShipAction(
                    "checkpoint", CHECKPOINT_NAME, head["size"], head["digest"], staged=True
                )
            )

        # Commit renames: staged recipes oldest-first, checkpoint head last.
        for name in sorted(changed_recipes):
            plan.renames.append(ObjectRef("recipe", name))
        if ship_head:
            plan.renames.append(ObjectRef("checkpoint", CHECKPOINT_NAME))

        # Deletions (expired on source): recipes, then manifests, then the
        # §4.5-tagged containers those versions owned — the mirror never
        # keeps a recipe whose containers are gone — then checkpoint parts
        # (applied after the renames, so after the head that unnamed them).
        for name in sorted(set(target["recipes"]) - set(source["recipes"])):
            plan.deletes.append(ObjectRef("recipe", name))
        for name in sorted(set(target["manifests"]) - set(source["manifests"])):
            plan.deletes.append(ObjectRef("manifest", name))
        for name in sorted(set(target["containers"]) - set(source["containers"])):
            plan.deletes.append(ObjectRef("container", name))
        for name in sorted(set(target["checkpoint"]) - set(source["checkpoint"])):
            plan.deletes.append(ObjectRef("checkpoint", name))
        return plan
