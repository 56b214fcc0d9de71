"""The failover policy, with no socket, no waiting and no event loop.

:class:`~repro.cluster.controller.FailoverController` is a synchronous
state machine, so every transition the daemon can take is a function call
here: table tests for each rule, then an exhaustive walk of every order in
which three nodes' probes, verifies, offers and one operator map can be
delivered.  ``tests/test_cluster_failover.py`` keeps the end-to-end
evidence (bytes, version lists, typed errors) over real sockets.
"""

import copy
import dataclasses

import pytest

from repro.cluster import ClusterMap, NodeSpec
from repro.cluster.controller import (
    FailoverController,
    Note,
    Offer,
    Probe,
    Resync,
    Verify,
)
from repro.errors import NotPrimaryError

NODES = ("n1", "n2", "n3")


def three_nodes(epoch: int = 1) -> ClusterMap:
    return ClusterMap(
        [NodeSpec(name, f"{name}:7000") for name in NODES], epoch=epoch, replicas=2, vnodes=8
    )


BASE = three_nodes()
#: ``DEAD`` stops answering; ``WATCHER`` is the one node that probes it (and
#: mints its promotion); ``OTHER`` only hears about it.
DEAD = "n1"
WATCHER = next(n for n in NODES if n != DEAD and BASE.probe_target(n).name == DEAD)
OTHER = next(n for n in NODES if n not in (DEAD, WATCHER))
DOWN = BASE.promote(DEAD, by=WATCHER)


def tenant_inherited_by(heir: str) -> str:
    """A tenant ``DEAD`` owns that ``heir`` becomes acting primary of."""
    return next(
        name for name in (f"tenant{i}" for i in range(500))
        if BASE.primary(name).name == DEAD and DOWN.primary(name).name == heir
    )


T_WATCHER = tenant_inherited_by(WATCHER)
T_OTHER = tenant_inherited_by(OTHER)
OK = {"entries": 40, "verify_seconds": 0.25}


def of(kind, outputs):
    return [out for out in outputs if isinstance(out, kind)]


def events(outputs):
    return [note.event for note in of(Note, outputs)]


def allowed(controller, tenant) -> bool:
    """Whether a write to ``tenant`` would be let through right now."""
    try:
        return controller.write_gate(tenant) is None
    except NotPrimaryError:
        return False


def miss(controller, hosted=(), times=1):
    """``times`` probe intervals in which the watched peer does not answer."""
    out = []
    for _ in range(times):
        (probe,) = of(Probe, controller.tick())
        out = controller.probe_result(probe.target, False, hosted=hosted, error="refused")
    return out


# ----------------------------------------------------------------------
# (a) One rule per test
# ----------------------------------------------------------------------
def test_a_tick_probes_the_live_predecessor_with_the_map_attached():
    controller = FailoverController(WATCHER, BASE, probe_failures=2)
    (probe,) = controller.tick()
    assert probe == Probe(DEAD, BASE.node(DEAD).address, BASE.as_doc())
    # A daemon that only serves the map (no node name) never probes or fences.
    bystander = FailoverController(None, BASE)
    assert bystander.tick() == [] and bystander.write_gate("anything") is None
    assert events(bystander.map_offered(DOWN)) == ["cluster_map_adopted"]


def test_failure_counter_resets_when_the_target_changes():
    controller = FailoverController(WATCHER, BASE, probe_failures=2)
    out = miss(controller)
    assert events(out) == ["cluster_probe_failed"]
    assert of(Note, out)[0].fields["failures"] == 1
    assert of(Note, out)[0].counter == "cluster.probe_failures"
    # Someone else declares the peer dead: the next tick watches the next
    # live predecessor, and its first miss counts from one again.
    controller.map_offered(DOWN.as_doc(), source=OTHER)
    (probe,) = of(Probe, controller.tick())
    assert probe.target == OTHER
    # An answer about the peer we no longer watch changes nothing.
    assert controller.probe_result(DEAD, False, error="late") == []
    out = controller.probe_result(OTHER, False, error="refused")
    assert of(Note, out)[0].fields["failures"] == 1
    assert controller.cluster.epoch == DOWN.epoch  # one miss: no promotion
    # A reply resets the count as well.
    (probe,) = of(Probe, controller.tick())
    assert controller.probe_result(OTHER, True, controller.cluster.as_doc()) == []
    assert of(Note, miss(controller))[0].fields["failures"] == 1


def test_promotion_is_minted_exactly_once_per_threshold_crossing():
    controller = FailoverController(WATCHER, BASE, probe_failures=3)
    assert "cluster_promoted" not in events(miss(controller, times=2))
    out = miss(controller)  # the third miss crosses
    assert events(out) == ["cluster_probe_failed", "cluster_promoted"]
    promoted = of(Note, out)[1]
    assert promoted.counter == "cluster.promotions"
    assert promoted.fields == {"node": WATCHER, "dead": DEAD, "tenants": [], "epoch": 2}
    assert controller.cluster.epoch == 2 and controller.cluster.down_names() == [DEAD]
    # The map goes to the live peers only, never to the corpse or ourselves.
    assert [o.address for o in of(Offer, out)] == [BASE.node(OTHER).address]
    assert of(Offer, out)[0].doc == controller.cluster.as_doc()
    # The corpse is no longer watched; the new target starts its own count.
    assert "cluster_promoted" not in events(miss(controller, times=2))
    assert controller.cluster.epoch == 2


def test_write_gate_opens_only_after_the_verify_for_that_epoch():
    controller = FailoverController(WATCHER, BASE, probe_failures=1)
    with pytest.raises(NotPrimaryError, match="is not the primary"):
        controller.write_gate(T_WATCHER)
    out = miss(controller, hosted=[T_WATCHER, T_OTHER, "unrelated"])
    # Verify-before-serve: only the tenant this node inherits, and the
    # minted map is not adopted (nor gossiped) while the verify is out.
    assert of(Verify, out) == [Verify(T_WATCHER, 2)]
    assert of(Offer, out) == [] and controller.cluster.epoch == 1
    assert controller.tick() == []  # the one promotion in flight
    assert not allowed(controller, T_WATCHER)
    out = controller.verify_result(T_WATCHER, 2, True, OK)
    assert events(out) == ["cluster_promotion_verified", "cluster_promoted"]
    assert of(Note, out)[0].fields == {"repo": T_WATCHER, "epoch": 2, **OK}
    assert of(Note, out)[1].fields["tenants"] == [T_WATCHER]
    assert controller.cluster.epoch == 2 and allowed(controller, T_WATCHER)
    # Natural primaries never needed a verdict; other nodes' tenants stay fenced.
    assert not allowed(controller, T_OTHER)


@pytest.mark.parametrize(
    "detail", [{"error": "3 chunks fail their fingerprint", "verify_seconds": 0.2},
               {"error": "no local replica"}],
)
def test_a_failed_verify_adopts_the_map_but_keeps_the_tenant_fenced(detail):
    controller = FailoverController(WATCHER, BASE, probe_failures=1)
    (verify,) = of(Verify, miss(controller, hosted=[T_WATCHER]))
    out = controller.verify_result(verify.tenant, verify.epoch, False, detail)
    assert events(out) == ["cluster_promotion_verify_failed", "cluster_promoted"]
    assert of(Note, out)[0].counter == "cluster.promotion_verify_failures"
    assert of(Note, out)[0].fields["error"] == detail["error"]
    assert controller.cluster.epoch == 2
    with pytest.raises(NotPrimaryError, match="is not verified"):
        controller.write_gate(T_WATCHER)
    with pytest.raises(NotPrimaryError, match="is not verified"):
        controller.write_gate(T_WATCHER)  # and stays fenced: no second Verify


def test_a_node_that_learns_of_a_promotion_verifies_lazily_and_per_epoch():
    controller = FailoverController(OTHER, BASE)
    assert events(controller.map_offered(DOWN.as_doc(), source=WATCHER)) == ["cluster_map_adopted"]
    assert controller.write_gate(T_OTHER) == Verify(T_OTHER, 2)
    # A verdict about an older (or a future) epoch is not what was asked.
    assert controller.verify_result(T_OTHER, 1, True, OK) == []
    assert controller.verify_result(T_OTHER, 3, True, OK) == []
    assert controller.write_gate(T_OTHER) == Verify(T_OTHER, 2)
    assert events(controller.verify_result(T_OTHER, 2, True, OK)) == ["cluster_promotion_verified"]
    assert allowed(controller, T_OTHER)
    # The verdict table is pruned to the adopted epoch: a newer map asks again.
    for epoch in range(3, 40):
        bumped = ClusterMap(DOWN.nodes, epoch=epoch, replicas=2, vnodes=8)
        controller.map_offered(bumped, source="operator")
        assert controller.write_gate(T_OTHER) == Verify(T_OTHER, epoch)
        controller.verify_result(T_OTHER, epoch, True, OK)
        assert allowed(controller, T_OTHER)
        assert list(controller._verdicts) == [(T_OTHER, epoch)]


def test_maps_are_adopted_highest_epoch_only():
    controller = FailoverController(OTHER, BASE)
    note = of(Note, controller.map_offered(DOWN.as_doc(), source=WATCHER))[0]
    assert note.counter == "cluster.maps_adopted"
    assert note.fields == {"epoch": 2, "source": WATCHER, "down": [DEAD]}
    assert controller.map_offered(DOWN.as_doc()) == []  # same epoch
    assert controller.map_offered(BASE.as_doc()) == []  # older
    assert controller.map_offered({"nodes": "garbage"}) == []
    assert controller.cluster.epoch == 2


def test_a_demoted_node_resyncs_and_revives_only_on_a_clean_current_epoch():
    stale = FailoverController(DEAD, BASE, probe_failures=2)
    out = stale.map_offered(DOWN.as_doc(), source=WATCHER)
    assert events(out) == ["cluster_map_adopted", "cluster_demoted"]
    assert of(Note, out)[1].counter == "cluster.demotions"
    assert of(Resync, out) == [Resync(2)]
    with pytest.raises(NotPrimaryError):
        stale.write_gate(T_WATCHER)  # the old primary cannot fork history
    # One resync in flight: ticks keep probing but ask for no second one.
    out = stale.tick()
    assert of(Resync, out) == [] and len(of(Probe, out)) == 1
    # A dirty resync is no licence; the next tick asks again.
    assert stale.resync_result(2, False) == []
    assert of(Resync, stale.tick()) == [Resync(2)]
    # Neither is a clean one that ran under a map since replaced.
    newer = ClusterMap(DOWN.nodes, epoch=5, replicas=2, vnodes=8)
    assert events(stale.map_offered(newer, source="operator")) == ["cluster_map_adopted"]
    assert stale.resync_result(2, True) == []
    out = stale.tick()
    assert of(Resync, out) == [Resync(5)] and "cluster_revived" not in events(out)
    assert stale.cluster.epoch == 5 and stale.cluster.is_down(DEAD)
    # Clean, under the current epoch: the next tick mints the revive map.
    assert events(stale.resync_result(5, True)) == ["cluster_resync_clean"]
    out = stale.tick()
    assert events(out) == ["cluster_revived"]
    assert of(Note, out)[0].counter == "cluster.revivals"
    assert of(Note, out)[0].fields == {"node": DEAD, "epoch": 6}
    assert stale.cluster.epoch == 6 and not stale.cluster.is_down(DEAD)
    assert stale.cluster.promotions[-1] == {"epoch": 6, "revived": DEAD, "by": DEAD}
    assert sorted(o.address for o in of(Offer, out)) == sorted(
        BASE.node(n).address for n in (WATCHER, OTHER)
    )
    assert allowed(stale, T_WATCHER)  # natural primaryship is back, no verify
    # The licence is spent: a later demotion needs its own resync.
    assert of(Resync, stale.map_offered(stale.cluster.promote(DEAD, by=WATCHER))) == [Resync(7)]


def test_a_minted_map_is_dropped_when_a_newer_one_was_adopted_meanwhile():
    """The epoch regression: 1 -> 6 -> 2 in the code this controller replaced."""
    controller = FailoverController(WATCHER, BASE, probe_failures=1)
    (verify,) = of(Verify, miss(controller, hosted=[T_WATCHER]))
    operator = ClusterMap(BASE.nodes, epoch=6, replicas=2, vnodes=8)
    assert events(controller.map_offered(operator.as_doc(), source="operator")) == [
        "cluster_map_adopted"
    ]
    out = controller.verify_result(verify.tenant, verify.epoch, True, OK)
    assert "cluster_promoted" not in events(out) and of(Offer, out) == []
    assert controller.cluster.epoch == 6
    # The next tick re-targets from the adopted map and the count restarts.
    out = miss(controller, hosted=[T_WATCHER])
    assert of(Verify, out) == [Verify(T_WATCHER, 7)]


# ----------------------------------------------------------------------
# (b) Every delivery order of one failover's worth of messages
# ----------------------------------------------------------------------
#: Tenants each node held a copy of before the failure (primary + successor).
HOSTED = {
    node: [t for t in (T_WATCHER, T_OTHER) if node in [n.name for n in BASE.placement(t)]]
    for node in NODES
}
#: The operator's map: two epochs ahead, nobody marked down.
OPERATOR = three_nodes(epoch=3)
ADDRESS = {BASE.node(name).address: name for name in NODES}


def fork(controller):
    """A cheap copy: maps are never mutated in place, the rest is small."""
    twin = copy.copy(controller)
    twin._verdicts = dict(controller._verdicts)
    if controller._minting is not None:
        twin._minting = dataclasses.replace(
            controller._minting, waiting=set(controller._minting.waiting)
        )
    return twin


class World:
    """Three controllers, the messages in flight, and who verified what."""

    def __init__(self, controller_cls):
        self.nodes = {
            name: controller_cls(name, BASE, probe_failures=1) for name in NODES
        }
        # The bag: two probe intervals on the watcher (DEAD never answers),
        # one on the other live node, one operator map — and, as they are
        # delivered, every Probe/Verify/Offer/Resync they cause.
        self.bag = [("tick", WATCHER), ("tick", WATCHER), ("tick", OTHER), ("operator", OTHER)]
        self.verified = set()

    def fork(self):
        twin = copy.copy(self)
        twin.nodes = {name: fork(c) for name, c in self.nodes.items()}
        twin.bag = list(self.bag)
        twin.verified = set(self.verified)
        return twin

    def absorb(self, name, outputs):
        self.bag += [("act", name, out) for out in outputs if not isinstance(out, Note)]

    def offer(self, name, doc):
        """``doc`` arrives at ``name`` in a CLUSTER_MAP frame; its map rides back."""
        if name == DEAD:
            return None
        self.absorb(name, self.nodes[name].map_offered(doc, source="peer"))
        return self.nodes[name].cluster.as_doc()

    def deliver(self, index):
        item = self.bag.pop(index)
        name, controller = item[1], self.nodes[item[1]]
        if item[0] == "tick":
            out = controller.tick()
        elif item[0] == "operator":
            out = controller.map_offered(OPERATOR.as_doc(), source="operator")
        elif isinstance(item[2], Probe):
            reply = self.offer(item[2].target, item[2].offer)
            out = controller.probe_result(
                item[2].target, reply is not None, reply,
                hosted=HOSTED[name], error="refused",
            )
        elif isinstance(item[2], Verify):
            self.verified.add((name, item[2].tenant, item[2].epoch))
            out = controller.verify_result(item[2].tenant, item[2].epoch, True, OK)
        elif isinstance(item[2], Offer):
            self.offer(ADDRESS[item[2].address], item[2].doc)
            out = []
        else:  # Resync: nothing to pull in this world, so it is clean
            out = controller.resync_result(controller.cluster.epoch, True)
        self.absorb(name, out)
        return item

    def violation(self, before):
        for name in (WATCHER, OTHER):
            controller = self.nodes[name]
            if controller.cluster.epoch < before[name]:
                return f"{name}: epoch {before[name]} -> {controller.cluster.epoch}"
            for tenant in (T_WATCHER, T_OTHER):
                natural = controller.cluster.natural_primary(tenant).name == name
                verdict = (name, tenant, controller.cluster.epoch) in self.verified
                if allowed(controller, tenant) and not natural and not verdict:
                    return f"{name}: unverified write to {tenant} allowed"
        return None

    def settle(self, rounds=6):
        """The bag is empty: let gossip run, in one fixed order, until the
        live nodes hold the same map with ``DEAD`` marked down in it."""
        live = [self.nodes[name] for name in (WATCHER, OTHER)]
        for _ in range(rounds):
            docs = [controller.cluster.as_doc() for controller in live]
            if docs[0] == docs[1] and live[0].cluster.is_down(DEAD):
                return None
            self.bag += [("tick", WATCHER), ("tick", OTHER)]
            while self.bag:
                self.deliver(0)
        return f"no convergence: epochs {[c.cluster.epoch for c in live]}"


def label(item):
    return f"{item[0]}@{item[1]}" if item[0] != "act" else f"{type(item[2]).__name__}@{item[1]}"


def explore(controller_cls, max_depth=14):
    """Depth-first over every order the bag can be delivered in.

    Returns ``(orders, failure)``: the number of complete delivery orders
    walked, and the first violation as ``(trace, what)`` (``None`` if no
    order breaks an invariant).
    """
    orders = 0
    stack = [(World(controller_cls), [])]
    while stack:
        world, trace = stack.pop()
        if not world.bag:
            orders += 1
            what = world.settle()
            if what is not None:
                return orders, (trace, what)
            continue
        assert len(trace) < max_depth, f"bag does not drain: {trace}"
        seen = set()
        for index, item in enumerate(world.bag):
            if repr(item) in seen:
                continue  # identical messages: one order stands for both
            seen.add(repr(item))
            twin = world.fork()
            before = {name: c.cluster.epoch for name, c in world.nodes.items()}
            step = trace + [label(twin.deliver(index))]
            what = twin.violation(before)
            if what is not None:
                return orders, (step, what)
            stack.append((twin, step))
    return orders, None


def test_every_delivery_order_keeps_epochs_monotone_writes_fenced_and_converges():
    orders, failure = explore(FailoverController)
    assert failure is None, failure
    # Every order (at most 14 deliveries deep) of the four bag items and the
    # actions they cause; two identical in-flight messages count once.
    # Pinned so that a change which prunes the walk, or blows it up, shows.
    assert orders == 1717


class AdoptsUnconditionally(FailoverController):
    """The parent's ``_promote_dead``: whatever was minted becomes the map."""

    def _finish_promotion(self):
        minting, self._minting = self._minting, None
        return self._publish(
            minting.cmap, "cluster_promoted", "cluster.promotions",
            dead=minting.dead, tenants=minting.gained,
        )


def test_the_walk_catches_a_controller_that_adopts_its_minted_map_unconditionally():
    _orders, failure = explore(AdoptsUnconditionally)
    assert failure is not None
    trace, what = failure
    assert "epoch 3 -> 2" in what and trace[-1] == f"Verify@{WATCHER}"

