"""Sharded multi-daemon cluster: placement, routing, failover, rebalance.

The scale-out layer above a single :class:`~repro.server.daemon.BackupDaemon`:

- :mod:`.ring` — consistent hashing with virtual nodes.  Deterministic
  tenant→node placement that moves only ~1/N of tenants when membership
  changes.
- :mod:`.map` — the versioned :class:`ClusterMap` document (node list +
  ring parameters), invalidated by epoch.
- :mod:`.client` — :class:`ClusterClient`, the client-side router: resolves
  a tenant to its primary daemon, pools connections per address, fails
  restores over to ring-successor replicas when the primary dies, and
  retries failed writes on the promoted primary a newer map names.
- :mod:`.controller` — :class:`FailoverController`, the failover policy
  (probe, promote, verify, demote, resync, revive) as a pure tick-driven
  state machine the daemon executes.
- :mod:`.failover` — the demoted-node resync pull (:func:`pull_tenant`).
- :mod:`.supervisor` — spawn and supervise N daemons from one spec file
  (``hidestore cluster serve``), plus an in-process harness for tests.
- :mod:`.rebalance` — move only the tenants whose ring ownership changed,
  deep-verifying the new primary before the old copy is dropped.
"""

from .client import ClusterClient, RoutedRepository, failover_worthy
from .failover import pull_tenant
from .map import DEFAULT_REPLICAS, ClusterMap, NodeSpec, newer_map
from .rebalance import ClusterRebalancer, hosted_tenants, moved_tenants
from .ring import DEFAULT_VNODES, HashRing, moved_keys, node_order
from .supervisor import ClusterHarness, ClusterSupervisor, assign_ports

__all__ = [
    "DEFAULT_REPLICAS",
    "DEFAULT_VNODES",
    "ClusterClient",
    "ClusterHarness",
    "ClusterMap",
    "ClusterRebalancer",
    "ClusterSupervisor",
    "HashRing",
    "NodeSpec",
    "RoutedRepository",
    "assign_ports",
    "failover_worthy",
    "hosted_tenants",
    "moved_keys",
    "moved_tenants",
    "newer_map",
    "node_order",
    "pull_tenant",
]
