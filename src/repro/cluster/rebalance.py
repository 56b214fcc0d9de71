"""Rebalance: move only the tenants whose ring ownership changed.

Consistent hashing promises that a membership change relocates ~1/N of
the keyspace; this module is where that promise is cashed in.  Given the
*old* map and the *new* map (epoch-bumped), the rebalancer:

1. enumerates hosted tenants (union of every old-map node's tenant list);
2. keeps only those whose placement differs between the maps —
   everything else is untouched, so the work is O(moved tenants);
3. copies each moved tenant daemon→daemon with the one tenant copy,
   :func:`~repro.replication.session.sync`, from a surviving old holder
   to each new holder: both endpoints are
   :class:`~repro.replication.targets.RemoteMirror` over the client's
   shared pools (``REPLICATE_STATE`` / ``REPLICATE_FETCH`` on the source,
   ``REPLICATE_STATE`` / ``REPLICATE_PUT`` / ``REPLICATE_COMMIT`` on the
   destination).  The copy is O(delta): a new holder that already
   replicates the tenant receives only what it lacks;
4. **deep-verifies the new primary's copy** (server-side re-hash of every
   chunk and container) and only then sends ``TENANT_DROP`` to holders
   that lost the tenant.  A failed verify keeps the old copy — rebalance
   must never be the thing that loses data.

The daemons count arrivals themselves: a ``REPLICATE_COMMIT`` landing on
a tenant's ring primary increments ``cluster.tenants_moved`` on that node
(see the session handler), so ``cluster status --metrics`` shows where
rebalanced tenants landed.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from ..errors import ClusterError, ReproError
from ..replication.session import sync
from ..replication.targets import RemoteMirror
from .client import ClusterClient
from .map import ClusterMap, NodeSpec


def moved_tenants(old: ClusterMap, new: ClusterMap, tenants: List[str]) -> List[str]:
    """The tenants whose placement (primary or replica set) changed."""
    return [
        tenant for tenant in tenants
        if [n.name for n in old.placement(tenant)] != [n.name for n in new.placement(tenant)]
    ]


def hosted_tenants(client: ClusterClient, cmap: ClusterMap) -> List[str]:
    """Every tenant any reachable node hosts (union over the cluster)."""
    names: set = set()
    reachable = 0
    for node in cmap.nodes:
        try:
            stats = client.remote(node.address, "-").server_stats()
        except (ReproError, OSError):
            continue
        reachable += 1
        names.update(stats.get("repos", {}))
    if not reachable:
        raise ClusterError("no node of the cluster is reachable")
    return sorted(names)


class ClusterRebalancer:
    """Execute one old-map → new-map data movement."""

    def __init__(self, client: ClusterClient, old: ClusterMap, new: ClusterMap) -> None:
        if new.epoch <= old.epoch:
            raise ClusterError(
                f"new map epoch {new.epoch} must exceed old epoch {old.epoch} "
                "(bump it — routers never downgrade)"
            )
        self.client = client
        self.old = old
        self.new = new

    # ------------------------------------------------------------------
    def _copy(self, tenant: str, source: NodeSpec, dest: NodeSpec) -> Dict:
        """One O(delta) daemon→daemon tenant copy over the shared pools."""
        report = sync(
            RemoteMirror(remote=self.client.remote(source.address, tenant)),
            RemoteMirror(remote=self.client.remote(dest.address, tenant)),
        )
        return {
            "from": source.name,
            "to": dest.name,
            "objects_shipped": report.objects_shipped,
            "bytes_shipped": report.bytes_shipped,
            "containers_skipped": report.containers_skipped,
        }

    def _source_for(self, tenant: str) -> NodeSpec:
        """A surviving old holder to pull from (primary preferred).

        Holders the old map marks ``down`` are probed last: after a
        failover the down node may well be back and reachable, but the
        promoted live holders took every write made in its absence.
        """
        errors = []
        holders = self.old.placement(tenant)
        holders = [n for n in holders if not n.down] + [n for n in holders if n.down]
        for node in holders:
            try:
                self.client.remote(node.address, tenant).replicate_state()
                return node
            except (ReproError, OSError) as exc:
                errors.append(f"{node.name}: {type(exc).__name__}: {exc}")
        raise ClusterError(
            f"no old holder of {tenant!r} is reachable: " + "; ".join(errors)
        )

    # ------------------------------------------------------------------
    def move_tenant(self, tenant: str) -> Dict:
        """Copy one tenant to its new holders, verify, then drop old copies."""
        old_names = [n.name for n in self.old.placement(tenant)]
        new_nodes = self.new.placement(tenant)
        new_names = [n.name for n in new_nodes]
        source = self._source_for(tenant)
        copies = []
        for dest in new_nodes:
            if dest.name == source.name:
                continue  # the source already holds the bytes
            copies.append(self._copy(tenant, source, dest))

        # The gate: the new primary must prove it can serve every chunk
        # before any old copy disappears.
        primary = new_nodes[0]
        report = self.client.remote(primary.address, tenant).verify(deep=True)
        if not report.get("ok"):
            raise ClusterError(
                f"deep verify of {tenant!r} on new primary {primary.name} "
                f"failed: {report.get('issues')!r}; old copies kept"
            )

        dropped = []
        for node in self.old.placement(tenant):
            if node.name in new_names:
                continue
            try:
                self.client.remote(node.address, tenant).drop_tenant()
                dropped.append(node.name)
            except (ReproError, OSError):
                # A dead old holder keeps a stale copy; harmless (it is
                # outside the new map) and removable when it returns.
                pass
        self.client.events.log(
            "cluster_tenant_moved",
            repo=tenant,
            old=old_names,
            new=new_names,
            dropped=dropped,
        )
        return {
            "tenant": tenant,
            "old": old_names,
            "new": new_names,
            "copies": copies,
            "verified": True,
            "dropped": dropped,
        }

    def run(self, tenants: Optional[List[str]] = None) -> Dict:
        """Move every tenant whose ownership changed; returns the report."""
        started = time.perf_counter()
        universe = tenants if tenants is not None else hosted_tenants(self.client, self.new)
        moved = moved_tenants(self.old, self.new, universe)
        results = [self.move_tenant(tenant) for tenant in moved]
        return {
            "old_epoch": self.old.epoch,
            "new_epoch": self.new.epoch,
            "tenants_checked": len(universe),
            "tenants_moved": len(results),
            "unchanged": sorted(set(universe) - set(moved)),
            "moves": results,
            "duration_seconds": round(time.perf_counter() - started, 3),
        }
