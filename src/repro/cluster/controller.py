"""The failover policy as a synchronous, side-effect-free state machine.

Probe -> promote -> verify -> gossip -> demote -> resync -> revive, with
no socket, thread, event loop or clock in sight: the daemon
(:mod:`repro.server.daemon`) calls :meth:`FailoverController.tick` once
per probe interval, performs the I/O each returned *action* names, and
feeds the outcome back through the matching ``*_result`` input.  Every
input returns its outputs in the order they must happen: :class:`Note`
(an event to log, a counter to bump) and the actions :class:`Probe`,
:class:`Verify`, :class:`Offer` and :class:`Resync`.  DESIGN §8.1 has the
state table and the transitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..errors import ClusterError, NotPrimaryError
from .map import ClusterMap, newer_map


@dataclass(frozen=True)
class Note:
    """Log ``event`` with ``fields``; bump ``counter`` when it is named."""

    event: str
    fields: Dict
    counter: str = ""


@dataclass(frozen=True)
class Probe:
    """``CLUSTER_MAP`` round-trip to ``address`` carrying ``offer``: liveness
    check and map gossip in one frame.  Answer with :meth:`probe_result`."""

    target: str
    address: str
    offer: Dict


@dataclass(frozen=True)
class Verify:
    """Deep-verify the local replica of ``tenant``, which ``epoch`` made this
    node primary of.  Answer with :meth:`verify_result`."""

    tenant: str
    epoch: int


@dataclass(frozen=True)
class Offer:
    """Push a freshly minted map to one live peer.  Best effort — probes are
    the gossip backstop — so no outcome is fed back."""

    address: str
    doc: Dict


@dataclass(frozen=True)
class Resync:
    """Pull every hosted tenant from its acting primary and deep-verify it.
    Answer with :meth:`resync_result`."""

    epoch: int


@dataclass
class _Minting:
    """A promotion map waiting for its inherited tenants' verifies."""

    cmap: ClusterMap
    dead: str
    gained: List[str]
    waiting: Set[str]


class FailoverController:
    """One node's view of the cluster and what it should do about it.

    Args:
        node_name: this daemon's name in ``cmap`` (``None`` for a daemon
            that only serves and gossips the map: it adopts newer epochs
            but never probes, fences or promotes).
        cmap: the map the daemon started with.
        probe_failures: consecutive failed probes that declare the
            watched predecessor dead.
    """

    def __init__(
        self, node_name: Optional[str], cmap: ClusterMap, probe_failures: int = 3
    ) -> None:
        self.node_name = node_name
        self.cluster = cmap
        self.probe_failures = probe_failures
        self._watched: Optional[str] = None
        self._failures = 0
        self._minting: Optional[_Minting] = None
        self._verdicts: Dict[Tuple[str, int], bool] = {}
        self._resyncing = False
        self._resync_clean: Optional[int] = None

    def _is_down(self, cmap: ClusterMap) -> bool:
        name = self.node_name
        return bool(name) and cmap.has_node(name) and cmap.is_down(name)

    def _adopt(self, cmap: ClusterMap) -> None:
        self.cluster = cmap
        # A verdict answers "was this replica whole when epoch E made us
        # its primary"; older epochs can never be asked about again.
        self._verdicts = {
            key: ok for key, ok in self._verdicts.items() if key[1] >= cmap.epoch
        }

    def _publish(self, cmap: ClusterMap, event: str, counter: str, **fields) -> list:
        """Adopt a map this node minted itself and gossip it to the live peers."""
        self._adopt(cmap)
        doc = cmap.as_doc()
        note = Note(event, {"node": self.node_name, **fields, "epoch": cmap.epoch}, counter)
        peers = [node for node in cmap.live_nodes() if node.name != self.node_name]
        return [note] + [Offer(node.address, doc) for node in peers]

    def _ask_resync(self) -> List[Resync]:
        if self._resyncing:
            return []
        self._resyncing = True
        return [Resync(self.cluster.epoch)]

    # -- inputs ----------------------------------------------------------
    def tick(self) -> list:
        """One probe interval has passed: revive if licensed, then probe.

        Every daemon probes exactly one peer — its nearest *live*
        predecessor in ring-walk order — so each node has one watcher and
        a promotion a single minting owner.  A node the map marks down
        first works its way back: it asks for a resync until one verifies
        clean under the current epoch, then mints the map clearing its own
        marker, so its natural primaryship returns without an operator.
        """
        if not self.node_name or self._minting is not None:
            return []  # the minted map's verifies are still out
        out: list = []
        if self._is_down(self.cluster):
            if self._resync_clean != self.cluster.epoch:
                # Stale or missing: a newer epoch landed since the last
                # clean pull, so resync under it first.
                out += self._ask_resync()
            else:
                self._resync_clean = None
                revived = self.cluster.revive(self.node_name, by=self.node_name)
                out += self._publish(revived, "cluster_revived", "cluster.revivals")
        target = self.cluster.probe_target(self.node_name)
        if target is None:
            return out
        if target.name != self._watched:
            self._watched, self._failures = target.name, 0
        return out + [Probe(target.name, target.address, self.cluster.as_doc())]

    def probe_result(
        self, target: str, ok: bool, peer_doc: Optional[object] = None,
        hosted: Sequence[str] = (), error: str = "",
    ) -> list:
        """The outcome of a :class:`Probe`.

        A reply resets the miss count and gossips: the peer's map rides
        back on it and is adopted when newer — how a rejoining stale
        daemon learns of its own demotion within one interval.  The
        ``probe_failures``-th consecutive miss mints the promotion map
        marking ``target`` down; ``hosted`` (the tenants this node holds,
        needed only with a miss) decides which replicas must pass a deep
        verify before that map is adopted.
        """
        if target != self._watched or self._minting is not None:
            return []  # an answer about a peer we no longer watch
        if ok:
            self._failures = 0
            return [] if peer_doc is None else self.map_offered(peer_doc, source=target)
        self._failures += 1
        fields = {
            "node": self.node_name, "target": target, "failures": self._failures,
            "threshold": self.probe_failures, "error": error,
        }
        out: list = [Note("cluster_probe_failed", fields, "cluster.probe_failures")]
        if self._failures < self.probe_failures:
            return out
        self._failures = 0
        current = self.cluster
        try:
            promoted = current.promote(target, by=self.node_name)
        except ClusterError:
            # Raced with another map change (the peer was already marked
            # down via gossip); the next tick re-targets.
            return out
        gained = [
            name for name in hosted
            if promoted.primary(name).name == self.node_name
            and current.primary(name).name == target
        ]
        # Verify-before-serve: the minted map is adopted — and the write
        # gate opens — only once every inherited replica has reported.
        waiting = [name for name in gained if (name, promoted.epoch) not in self._verdicts]
        self._minting = _Minting(promoted, target, gained, set(waiting))
        if not waiting:
            return out + self._finish_promotion()
        return out + [Verify(name, promoted.epoch) for name in waiting]

    def _finish_promotion(self) -> list:
        minting, self._minting = self._minting, None
        if minting.cmap.epoch <= self.cluster.epoch:
            # A map at least as new was adopted while the verifies ran;
            # publishing ours now would roll the epoch back.  Drop it: the
            # next tick re-targets from the adopted map.
            return []
        return self._publish(
            minting.cmap, "cluster_promoted", "cluster.promotions",
            dead=minting.dead, tenants=minting.gained,
        )

    def verify_result(self, tenant: str, epoch: int, ok: bool, detail: Dict) -> list:
        """The outcome of a :class:`Verify`; ``detail`` joins the event.

        A failed verify — or no local replica at all — leaves the tenant
        fenced for that epoch: inventing a fresh history for a tenant we
        never replicated is exactly the fork the gate exists to prevent.
        """
        minting = self._minting
        for_minted = minting is not None and epoch == minting.cmap.epoch
        if epoch != self.cluster.epoch and not for_minted:
            return []  # a verdict about an epoch nobody will ask about
        self._verdicts[(tenant, epoch)] = ok
        fields = {"repo": tenant, "epoch": epoch, **detail}
        if ok:
            out: list = [Note("cluster_promotion_verified", fields)]
        else:
            out = [Note("cluster_promotion_verify_failed", fields,
                        "cluster.promotion_verify_failures")]
        if for_minted:
            minting.waiting.discard(tenant)
            if not minting.waiting:
                out += self._finish_promotion()
        return out

    def map_offered(self, doc: object, source: str = "peer") -> list:
        """A peer (or an operator) showed us a map: adopt it if newer.

        Epoch monotonicity is the whole safety story for map exchange:
        adopt-highest, never downgrade.  A daemon that learns a newer map
        marks *itself* down demotes: it asks for a resync of every hosted
        tenant from that tenant's acting primary, and until placement says
        otherwise its write gate refuses mutations — the rejoining old
        primary cannot fork history.
        """
        try:
            fresh = doc if isinstance(doc, ClusterMap) else ClusterMap.from_doc(doc)
        except ClusterError:
            return []
        if newer_map(self.cluster, fresh) is self.cluster:
            return []
        was_down = self._is_down(self.cluster)
        self._adopt(fresh)
        fields = {"epoch": fresh.epoch, "source": source, "down": fresh.down_names()}
        out: list = [Note("cluster_map_adopted", fields, "cluster.maps_adopted")]
        if self._is_down(fresh) and not was_down:
            fields = {"node": self.node_name, "epoch": fresh.epoch}
            out.append(Note("cluster_demoted", fields, "cluster.demotions"))
            out += self._ask_resync()
        return out

    def resync_result(self, epoch: int, clean: bool) -> list:
        """The outcome of a :class:`Resync` run under the map of ``epoch``.

        Only a clean resync of the *current* epoch licenses a revive; one
        that finished under an older map is re-run by the next tick.
        """
        self._resyncing = False
        if not clean or epoch != self.cluster.epoch:
            return []
        self._resync_clean = epoch
        return [Note("cluster_resync_clean", {"node": self.node_name, "epoch": epoch})]

    def write_gate(self, tenant: str) -> Optional[Verify]:
        """The write fence: may this node mutate ``tenant`` right now?

        Returns ``None`` to allow.  Raises :class:`NotPrimaryError` when
        this node is not the tenant's acting primary under the current
        map (a stale client, or a rejoined old primary the client has not
        re-routed from), or is acting primary by promotion with a replica
        that failed its deep verify.  Returns the :class:`Verify` to run
        first when the promoted replica has no verdict for this epoch yet.
        """
        if not self.node_name:
            return None
        cluster = self.cluster
        acting = cluster.primary(tenant)
        if acting.name != self.node_name:
            raise NotPrimaryError(
                f"node {self.node_name!r} is not the primary for {tenant!r} "
                f"in epoch {cluster.epoch} ({acting.name!r} is); "
                "refresh the cluster map and retry there"
            )
        if cluster.natural_primary(tenant).name == self.node_name:
            return None
        verdict = self._verdicts.get((tenant, cluster.epoch))
        if verdict is None:
            return Verify(tenant, cluster.epoch)
        if not verdict:
            raise NotPrimaryError(
                f"promotion of {tenant!r} to node {self.node_name!r} "
                f"(epoch {cluster.epoch}) is not verified; "
                "writes are fenced until the replica passes deep verify"
            )
        return None
