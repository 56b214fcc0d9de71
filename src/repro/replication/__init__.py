"""Replication & disaster recovery: incremental tenant copies and repair.

One routine copies a tenant — :func:`.session.sync`, from a source
endpoint to a target endpoint, in O(delta) work — and every copy goes
through it: ``hidestore replicate`` and the cluster's replica sync, the
demoted node's failover pull, the rebalance move.  Damaged containers are
repaired back from a mirror:

* :mod:`.state` — the replicable-object model: what a repository *is* on
  the wire (containers / manifests / recipes / checkpoint) and how each
  kind is identified and digested.
* :mod:`.planner` — :class:`SyncPlanner` diffs two states into a
  :class:`SyncPlan`: sealed containers copied once and never again,
  digest-bearing objects re-shipped on digest change, expired objects
  deleted.
* :mod:`.targets` — the endpoints: :class:`LocalMirror` (a repository
  this process opens) and :class:`RemoteMirror` (a daemon tenant over
  ``REPLICATE_*`` frames), behind one :class:`ReplicationTarget` protocol.
* :mod:`.session` — :func:`sync` runs one plan between two endpoints;
  :class:`ReplicationSession` journals a sync from a repository.
  Interrupted syncs resume without re-shipping.
* :mod:`.repair` — :func:`repair_from_mirror` re-fetches containers that
  fail verification, validating every blob before it lands.
"""

from .planner import ObjectRef, ShipAction, SyncPlan, SyncPlanner
from .repair import (
    RepairReport,
    check_container_blob,
    repair_from_mirror,
    scan_containers,
    verify_repository,
)
from .session import ReplicationSession, SyncJournal, SyncReport, journal_path_for, sync
from .state import normalize_state, same_identity
from .targets import LocalMirror, RemoteMirror, ReplicationTarget, open_target

__all__ = [
    "LocalMirror",
    "ObjectRef",
    "RemoteMirror",
    "RepairReport",
    "ReplicationSession",
    "ReplicationTarget",
    "ShipAction",
    "SyncJournal",
    "SyncPlan",
    "SyncPlanner",
    "SyncReport",
    "check_container_blob",
    "journal_path_for",
    "normalize_state",
    "open_target",
    "repair_from_mirror",
    "same_identity",
    "scan_containers",
    "sync",
    "verify_repository",
]
