"""Health-driven primary failover: the data-plane half.

The control plane — probing, declaring a node dead, minting the promotion
map — is :class:`~repro.cluster.controller.FailoverController`, executed by
the daemon.  This module holds the data movement a failover needs on the
way back up:

* :func:`pull_tenant` — the demoted-node resync.  When a dead primary
  rejoins with a stale epoch it adopts the newer map, demotes itself to
  replica, and *pulls* every hosted tenant back in sync from the tenant's
  current acting primary.  The pull is the O(delta) planner diff from the
  replication subsystem run in reverse: capture both states, plan the
  ships, fetch only the missing objects, land them in visibility-safe
  order and commit.  Containers preserved byte-for-byte is what keeps the
  paper's physical-locality argument intact across a demotion — the
  resynced copy restores with the same contiguity as the copy it mirrors.

Promotion safety itself (the verify-before-serve gate) reuses the
repository's deep verify exactly as the PR 7 rebalancer does before a
``TENANT_DROP``: the promoted successor re-hashes every chunk of its
replica before the first write is accepted, so a fork of tenant history
is impossible even if the replica was torn.
"""

from __future__ import annotations

from typing import Dict

from ..client.remote import RemoteRepository
from ..errors import ReplicationError
from ..replication.planner import SyncPlanner
from ..replication.state import blob_digest, capture_state, normalize_state
from ..replication.targets import commit_objects, write_object


def pull_tenant(remote: RemoteRepository, repository) -> Dict:
    """Pull one tenant's state from ``remote`` into the local ``repository``
    and deep-verify the result.

    The mirror-sync diff with the arrow reversed: ``remote`` (the acting
    primary) is the source of truth, the local repository the target.
    Ships land additions invisibly (containers and manifests are
    unreferenced until a recipe names them; recipes arrive ``*.staged``),
    then one commit flips visibility and removes local objects the source
    no longer has — so a reader never observes a half-applied resync.
    Digest-carrying objects are validated in transit.

    Callers must hold the tenant's write lock.  The cached engine is
    dropped, and the pulled copy then has to pass the same
    re-hash-every-chunk check promotion demands (``verified`` in the
    returned event fields): the revive gate, before this node may reclaim
    its natural primaryship.
    """
    root = repository.root
    src_state = normalize_state(remote.replicate_state().get("state"))
    dst_state = capture_state(root)
    plan = SyncPlanner().plan(src_state, dst_state)
    pulled = pulled_bytes = 0
    for action in plan.ships:
        blob = remote.replicate_fetch(action.kind, action.name)
        if action.digest and blob_digest(blob) != action.digest:
            raise ReplicationError(
                f"pulled {action.kind} {action.name!r} failed digest "
                "validation in transit"
            )
        write_object(root, action.kind, action.name, blob, action.staged)
        pulled += 1
        pulled_bytes += len(blob)
    if plan.needs_commit:
        commit_objects(root, plan.renames, plan.deletes)
    repository.invalidate()
    verify = repository.verify(True)
    return {
        "verified": bool(verify.get("ok")),
        "verify_seconds": verify.get("seconds"),
        "objects_pulled": pulled,
        "bytes_pulled": pulled_bytes,
        "containers_skipped": plan.containers_skipped,
    }
