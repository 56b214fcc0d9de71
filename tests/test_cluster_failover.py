"""Automatic primary failover: probe, promote, fence, retry, resync.

The invariant every test here guards: a dead primary must not fail
writes until an operator shows up, AND no sequence of crashes, retries
and rejoins may ever fork a tenant's history.  The moving parts:

* daemons probe their ring predecessor and, after N consecutive misses,
  mint an epoch-bumped map marking the peer ``down`` (promotion);
* the promoted acting primary deep-verifies its replica before the write
  fence (:class:`~repro.errors.NotPrimaryError`) lets a mutation through;
* the router retries a failed write only on the *new* primary a newer
  map names — never the failed node, never a blind replica;
* a rejoining stale primary adopts the newer map from its own first
  probe, demotes, and pulls itself back in sync from the acting primary.
"""

import io
import os

import pytest

from repro.chunking import SeqCDCChunker, chunker_spec
from repro.client import RemoteRepository
from repro.cluster import (
    ClusterClient,
    ClusterHarness,
    ClusterMap,
    NodeSpec,
    node_order,
)
from repro.cluster.client import WRITE_RETRY_INTERVAL
from repro.errors import ClusterError, NotPrimaryError, RemoteError
from repro.observability import EventLogger, MetricsRegistry
from repro.repository import read_tree
from tests.conftest import oracle_sizes, recipe_sizes, wait_until

#: Aggressive probe settings so failover lands in test time, not ops time.
PROBE = dict(probe_interval=0.15, probe_failures=2, probe_timeout=1.0)


def make_tree(root: str, files: int = 2, size: int = 20_000, seed: int = 7):
    os.makedirs(root, exist_ok=True)
    for index in range(files):
        payload = bytes((seed + index + i) % 251 for i in range(size))
        with open(os.path.join(root, f"f{index}.bin"), "wb") as handle:
            handle.write(payload)
    return read_tree(root)


def tree_bytes(entries) -> bytes:
    parts = []
    for _rel, path in entries:
        with open(path, "rb") as handle:
            parts.append(handle.read())
    return b"".join(parts)


def restored_bytes(repo, version_id: int) -> bytes:
    _plan, stream = repo.restore(version_id)
    out = io.BytesIO()
    for block in stream:
        out.write(block)
    return out.getvalue()


# ----------------------------------------------------------------------
# Map-level unit tests: promotion minting and probe topology
# ----------------------------------------------------------------------
def test_promote_mints_epoch_bumped_down_marked_map():
    cmap = ClusterMap(
        [NodeSpec(f"n{i}", f"h:{i}") for i in (1, 2, 3)], replicas=2
    )
    promoted = cmap.promote("n1", by="n2")
    assert promoted is not cmap  # never mutate in place: harness shares maps
    assert promoted.epoch == cmap.epoch + 1
    assert promoted.down_names() == ["n1"]
    assert promoted.promotions[-1] == {"epoch": 2, "down": "n1", "by": "n2"}
    # Round-trips through the wire document, including the markers.
    again = ClusterMap.from_doc(promoted.as_doc())
    assert again.as_doc() == promoted.as_doc()
    assert again.is_down("n1")
    # A down node is demoted to the back of every placement; every tenant
    # n1 owned gets a live acting primary, and n1 stays listed (so its
    # rejoin finds itself in the map and demotes).
    for tenant in (f"t{i}" for i in range(50)):
        placement = [n.name for n in promoted.placement(tenant)]
        assert placement[0] != "n1"
        natural = promoted.natural_primary(tenant).name
        if natural == "n1":
            assert promoted.primary(tenant).name != "n1"
    with pytest.raises(ClusterError):
        promoted.promote("n1", by="n3")  # already down


def test_probe_targets_form_a_live_predecessor_cycle():
    cmap = ClusterMap(
        [NodeSpec(f"n{i}", f"h:{i}") for i in (1, 2, 3)], replicas=2
    )
    targets = {n.name: cmap.probe_target(n.name).name for n in cmap.nodes}
    # Every node is probed by exactly one peer (a cycle, no gaps).
    assert sorted(targets.values()) == sorted(targets)
    assert all(targets[name] != name for name in targets)
    # Marking a node down re-routes its watcher to the next live
    # predecessor and nobody probes the corpse.
    promoted = cmap.promote("n2", by="n1")
    live_targets = {
        n.name: promoted.probe_target(n.name).name
        for n in promoted.live_nodes()
    }
    assert "n2" not in live_targets.values()
    order = node_order(["n1", "n2", "n3"])
    assert len(order) == 3
    # Single-node cluster: nothing to probe.
    solo = ClusterMap([NodeSpec("n1", "h:1")], replicas=1)
    assert solo.probe_target("n1") is None


# ----------------------------------------------------------------------
# The tentpole: kill the primary, the write still lands
# ----------------------------------------------------------------------
class RecordedEvents(EventLogger):
    """Keeps every event the daemons log (list.append is atomic)."""

    def __init__(self):
        self.events = []

    def log(self, event, **fields):
        self.events.append((event, fields))


def test_write_failover_promotes_successor_without_forking(tmp_path):
    recorded = RecordedEvents()
    harness = ClusterHarness(
        str(tmp_path), nodes=3, replicas=2, event_log=recorded, **PROBE
    )
    cmap = harness.start()
    try:
        with ClusterClient(
            [n.address for n in cmap.nodes],
            write_retry_timeout=30.0,
            metrics=MetricsRegistry(),
        ) as client:
            tenant = "writer"
            v1 = make_tree(str(tmp_path / "v1"), seed=1)
            v2 = make_tree(str(tmp_path / "v2"), seed=2)
            repo = client.repo(tenant)
            repo.backup_tree(v1, tag="v1")
            old_primary = cmap.primary(tenant)
            # Replicate v1 to the successor, then kill the primary dead.
            client.remote(old_primary.address, tenant).cluster_sync(tenant)
            harness.kill_node(old_primary.name)

            # The headline: the very next backup succeeds with zero
            # operator action — detection, promotion, verify and the
            # client's map-refresh retry all happen inside this call.
            report = repo.backup_tree(v2, tag="v2")
            assert report["version_id"] == 2

            fresh = client.refresh()
            assert fresh.epoch > cmap.epoch
            assert old_primary.name in fresh.down_names()
            assert fresh.promotions, "promotion record missing from map"
            new_primary = fresh.primary(tenant)
            assert new_primary.name != old_primary.name
            # The replica brought the tenant's head, so the promoted
            # primary cut v2 with the chunker v1 was cut with.
            remote = client.remote(new_primary.address, tenant)
            assert remote.stats()["chunker"] == chunker_spec(SeqCDCChunker())
            tenant_root = os.path.join(new_primary.root, tenant)
            assert recipe_sizes(tenant_root, 2) == oracle_sizes(SeqCDCChunker(), tree_bytes(v2))

            # Zero torn/forked versions: the promoted primary holds both
            # versions and each restores byte-identical to its source.
            versions = client.remote(new_primary.address, tenant).versions()
            assert [v["version_id"] for v in versions] == [1, 2]
            assert restored_bytes(repo, 1) == tree_bytes(v1)
            assert restored_bytes(repo, 2) == tree_bytes(v2)

            counters = client.metrics.snapshot()["counters"]
            assert counters.get("cluster.write_retries", 0) >= 1

            # The promotion gate says how long its deep verify took.
            gates = [
                fields for event, fields in recorded.events
                if event == "cluster_promotion_verified" and fields["repo"] == tenant
            ]
            assert gates and all(gate["verify_seconds"] > 0 for gate in gates)
    finally:
        harness.stop()


def test_direct_write_to_non_primary_is_fenced(tmp_path):
    # The daemon-side half of fork prevention: a clustered daemon refuses
    # mutations for tenants it is not acting primary for, even from a
    # client that never consulted the map.
    with ClusterHarness(str(tmp_path), nodes=3, replicas=2) as cmap:
        tenant = "fenced"
        replica = cmap.successors(tenant)[0]
        wrong = RemoteRepository(replica.address, tenant)
        try:
            with pytest.raises(NotPrimaryError):
                wrong.backup_tree(make_tree(str(tmp_path / "src")))
        finally:
            wrong.close()
        # The fence refused before creating anything: no forked tenant
        # directory appears on the replica.
        assert not os.path.exists(os.path.join(replica.root, tenant))


def test_stale_epoch_rejoin_demotes_and_resyncs(tmp_path):
    from repro.server import DaemonThread

    harness = ClusterHarness(str(tmp_path), nodes=3, replicas=2, **PROBE)
    cmap = harness.start()
    rejoined = None
    recorded = RecordedEvents()
    try:
        with ClusterClient(
            [n.address for n in cmap.nodes], write_retry_timeout=30.0
        ) as client:
            tenant = "rejoin"
            v1 = make_tree(str(tmp_path / "v1"), seed=3)
            v2 = make_tree(str(tmp_path / "v2"), seed=4)
            repo = client.repo(tenant)
            repo.backup_tree(v1, tag="v1")
            old_primary = cmap.primary(tenant)
            client.remote(old_primary.address, tenant).cluster_sync(tenant)
            harness.kill_node(old_primary.name)
            repo.backup_tree(v2, tag="v2")  # failover write the node missed

            # Rejoin the dead node with its ORIGINAL (stale, epoch-1) map:
            # exactly what a crashed daemon restarting from its old spec
            # file does.  Its own first probe gossips the promoted map
            # back; it must adopt, demote, and pull v2 — never serve or
            # extend its forked-in-time epoch-1 view.
            host, _, port = old_primary.address.rpartition(":")
            rejoined = DaemonThread(
                old_primary.root,
                host=host,
                port=int(port),
                cluster_map=cmap,
                node_name=old_primary.name,
                metrics=MetricsRegistry(),
                event_log=recorded,
                **PROBE,
            )
            rejoined.start()

            def rejoined_caught_up():
                view = RemoteRepository(old_primary.address, tenant)
                try:
                    doc = view.cluster_map()
                    if (doc.get("map") or {}).get("epoch", 0) <= cmap.epoch:
                        return False  # still on the stale epoch
                    return len(view.versions()) == 2
                except (RemoteError, OSError):
                    return False
                finally:
                    view.close()

            wait_until(rejoined_caught_up, timeout=30.0)
            # The revive gate deep-verified the pulled copy and timed it.
            resyncs = [f for event, f in recorded.events if event == "cluster_resync"]
            assert resyncs and all(f["verified"] and f["verify_seconds"] > 0 for f in resyncs)

            # Demoted: the rejoined node refuses writes for the tenant...
            direct = RemoteRepository(old_primary.address, tenant)
            try:
                with pytest.raises(NotPrimaryError):
                    direct.backup_tree(v1, tag="forker")
                # ...but its resynced replica is a faithful byte-level
                # mirror of the history it missed.
                versions = direct.versions()
                assert [v["version_id"] for v in versions] == [1, 2]
            finally:
                direct.close()
            assert restored_bytes(repo, 2) == tree_bytes(v2)
    finally:
        if rejoined is not None:
            rejoined.stop()
        harness.stop()


# ----------------------------------------------------------------------
# Router satellites: pool pruning, stale-map visibility, status detail
# ----------------------------------------------------------------------
def test_refresh_prunes_pools_for_departed_addresses(tmp_path):
    with ClusterHarness(str(tmp_path), nodes=3, replicas=2) as cmap:
        metrics = MetricsRegistry()
        with ClusterClient(
            [n.address for n in cmap.nodes], metrics=metrics
        ) as client:
            client.refresh()
            for node in cmap.nodes:
                client.pool_for(node.address)
            assert len(client._pools) == 3
            # A membership change ships a shrunken, epoch-bumped map; the
            # router adopts it (cache beats the daemons' older epoch) and
            # must drop the departed node's pool, not leak it forever.
            survivors = [n for n in cmap.nodes if n.name != "n3"]
            gone = cmap.node("n3").address
            client.seeds = [n.address for n in survivors]
            client.map = ClusterMap(
                survivors, epoch=cmap.epoch + 1, replicas=2, vnodes=cmap.vnodes
            )
            client.refresh()
            assert gone not in client._pools
            counters = metrics.snapshot()["counters"]
            assert counters.get("cluster.pools_pruned", 0) >= 1


def test_refresh_all_fail_reports_staleness(tmp_path, retry_clock):
    cmap = ClusterMap(
        [NodeSpec("n1", "127.0.0.1:1"), NodeSpec("n2", "127.0.0.1:2")],
        replicas=2,
    )
    metrics = MetricsRegistry()
    events = []

    class Capture:
        def log(self, event, **fields):
            events.append(event)

        def close(self):
            pass

    client = ClusterClient(
        [n.address for n in cmap.nodes],
        cluster_map=cmap,
        timeout=0.5,
        retries=1,
        event_log=Capture(),
        metrics=metrics,
    )
    try:
        # Nothing listens on those ports: every probe fails, the cached
        # map is returned, and the staleness is shouted, not swallowed.
        returned = client.refresh()
        assert returned is cmap
        assert client.map_stale is True
        assert "cluster_map_refresh_failed" in events
        counters = metrics.snapshot()["counters"]
        assert counters.get("cluster.map_refresh_errors", 0) == 1
        assert client.status()["stale"] is True
        assert retry_clock.sleeps == []  # retries=1: no pause anywhere
    finally:
        client.close()


def test_a_write_gives_up_when_no_promotion_surfaces(retry_clock):
    """The promotion poll re-reads the map every WRITE_RETRY_INTERVAL and
    stops at ``write_retry_timeout``; nothing listens, so no map names a
    new primary and the write is never re-sent."""
    cmap = ClusterMap(
        [NodeSpec("n1", "127.0.0.1:1"), NodeSpec("n2", "127.0.0.1:2")], replicas=2
    )
    metrics = MetricsRegistry()
    client = ClusterClient(
        [n.address for n in cmap.nodes], cluster_map=cmap, timeout=0.5,
        retries=1, metrics=metrics, write_retry_timeout=1.0,
    )
    try:
        with pytest.raises(ClusterError, match="no failover promotion surfaced"):
            client.repo("alpha").delete_oldest()
    finally:
        client.close()
    assert retry_clock.sleeps == [WRITE_RETRY_INTERVAL] * 3
    assert metrics.snapshot()["counters"].get("cluster.write_retries", 0) == 0


def test_status_distinguishes_stats_failure_from_dead(tmp_path, monkeypatch):
    with ClusterHarness(str(tmp_path), nodes=2, replicas=2) as cmap:
        with ClusterClient([n.address for n in cmap.nodes]) as client:
            broken_port = int(cmap.nodes[0].address.rpartition(":")[2])

            original = RemoteRepository.server_stats

            def flaky_stats(self):
                if self.pool.address[1] == broken_port:
                    raise RemoteError("stats subsystem exploded")
                return original(self)

            monkeypatch.setattr(RemoteRepository, "server_stats", flaky_stats)
            doc = client.status()
            rows = {row["name"]: row for row in doc["nodes"]}
            degraded = rows[cmap.nodes[0].name]
            healthy = rows[cmap.nodes[1].name]
            # Map-reachable-but-stats-failed is alive + stats_error, a
            # different signal from DOWN.
            assert degraded["alive"] is True
            assert "stats subsystem exploded" in degraded["stats_error"]
            assert healthy["alive"] is True and "stats_error" not in healthy
            assert doc["stale"] is False


# ----------------------------------------------------------------------
# Automatic revive: a resynced rejoiner un-marks itself
# ----------------------------------------------------------------------
def test_resynced_rejoiner_revives_and_resumes_natural_primaryship(tmp_path):
    """The rejoin story must not end at 'demoted replica forever': once a
    rejoined node has pulled every hosted tenant back in sync AND
    deep-verified them, its own health loop mints an epoch-bumped map with
    the down marker cleared — so its natural primaryship resumes without
    an operator rebalance."""
    from repro.server import DaemonThread

    harness = ClusterHarness(str(tmp_path), nodes=3, replicas=2, **PROBE)
    cmap = harness.start()
    rejoined = None
    try:
        with ClusterClient(
            [n.address for n in cmap.nodes], write_retry_timeout=30.0
        ) as client:
            tenant = "reviver"
            v1 = make_tree(str(tmp_path / "v1"), seed=5)
            v2 = make_tree(str(tmp_path / "v2"), seed=6)
            v3 = make_tree(str(tmp_path / "v3"), seed=8)
            repo = client.repo(tenant)
            repo.backup_tree(v1, tag="v1")
            old_primary = cmap.primary(tenant)
            assert cmap.natural_primary(tenant).name == old_primary.name
            client.remote(old_primary.address, tenant).cluster_sync(tenant)
            harness.kill_node(old_primary.name)
            repo.backup_tree(v2, tag="v2")  # failover write the node missed
            promoted = client.refresh()
            assert old_primary.name in promoted.down_names()

            host, _, port = old_primary.address.rpartition(":")
            rejoined = DaemonThread(
                old_primary.root,
                host=host,
                port=int(port),
                cluster_map=cmap,  # the stale epoch-1 spec it crashed with
                node_name=old_primary.name,
                metrics=MetricsRegistry(),
                **PROBE,
            )
            rejoined.start()

            # No operator action from here on: demote -> resync ->
            # deep-verify -> self-revive, all inside the health loop.
            def revived():
                fresh = client.refresh()
                return (
                    fresh.epoch > promoted.epoch
                    and old_primary.name not in fresh.down_names()
                ) and fresh
            fresh = wait_until(revived, timeout=40.0)

            assert fresh.promotions[-1]["revived"] == old_primary.name
            assert fresh.promotions[-1]["by"] == old_primary.name
            # Natural primaryship is back: placement again leads with the
            # revived node, and a write through the router lands on it.
            assert fresh.primary(tenant).name == old_primary.name
            report = repo.backup_tree(v3, tag="v3")
            assert report["version_id"] == 3
            direct = RemoteRepository(old_primary.address, tenant)
            try:
                assert [v["version_id"] for v in direct.versions()] == [1, 2, 3]
            finally:
                direct.close()
            assert restored_bytes(repo, 2) == tree_bytes(v2)
            assert restored_bytes(repo, 3) == tree_bytes(v3)
            counters = rejoined.daemon.metrics.snapshot()["counters"]
            assert counters.get("cluster.revivals", 0) == 1
    finally:
        if rejoined is not None:
            rejoined.stop()
        harness.stop()
