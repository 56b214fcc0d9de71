"""Health-driven primary failover: the data-plane half.

The control plane — probing, declaring a node dead, minting the promotion
map — is :class:`~repro.cluster.controller.FailoverController`, executed by
the daemon.  This module holds the data movement a failover needs on the
way back up:

* :func:`pull_tenant` — the demoted-node resync.  When a dead primary
  rejoins with a stale epoch it adopts the newer map, demotes itself to
  replica, and *pulls* every hosted tenant back in sync from the tenant's
  current acting primary: the one tenant copy,
  :func:`~repro.replication.session.sync`, with the acting primary as the
  source and the local repository as the target.  Containers preserved
  byte-for-byte is what keeps the paper's physical-locality argument
  intact across a demotion — the resynced copy restores with the same
  contiguity as the copy it mirrors.

Promotion safety itself (the verify-before-serve gate) reuses the
repository's deep verify exactly as the rebalancer does before a
``TENANT_DROP``: the promoted successor re-hashes every chunk of its
replica before the first write is accepted, so a fork of tenant history
is impossible even if the replica was torn.
"""

from __future__ import annotations

from typing import Dict

from ..client.remote import RemoteRepository
from ..replication.session import sync
from ..replication.targets import LocalMirror, RemoteMirror


def pull_tenant(remote: RemoteRepository, repository) -> Dict:
    """Pull one tenant's state from ``remote`` into the local ``repository``
    and deep-verify the result.

    ``remote`` (the acting primary) is the source of truth, the local
    repository the target.  Additions land invisibly (containers and
    manifests are unreferenced until a recipe names them; recipes arrive
    ``*.staged``), then one commit flips visibility and removes local
    objects the source no longer has — so a reader never observes a
    half-applied resync.  Every pulled object is checked against the
    source's state before it lands.

    Callers must hold the tenant's write lock.  The cached engine is
    dropped, and the pulled copy then has to pass the same
    re-hash-every-chunk check promotion demands (``verified`` in the
    returned event fields): the revive gate, before this node may reclaim
    its natural primaryship.
    """
    report = sync(RemoteMirror(remote=remote), LocalMirror(repository.storage))
    repository.invalidate()
    verify = repository.verify(True)
    return {
        "verified": bool(verify.get("ok")),
        "verify_seconds": verify.get("seconds"),
        "objects_pulled": report.objects_shipped,
        "bytes_pulled": report.bytes_shipped,
        "containers_skipped": report.containers_skipped,
    }
