"""Cluster subsystem: ring placement, map epochs, routed failover, rebalance.

The failure tests drive a real (in-process) multi-daemon cluster through
the client router and kill the primary at the worst moment — mid-restore —
asserting the reassembled bytes are identical to the source and no tenant
is left with a torn version.
"""

import io
import json
import os
import random
import threading

import pytest

from repro.client import RemoteRepository
from repro.client.protocol import RESTORE_BLOCK
from repro.cluster import (
    ClusterClient,
    ClusterHarness,
    ClusterMap,
    ClusterRebalancer,
    HashRing,
    NodeSpec,
    assign_ports,
    moved_keys,
    newer_map,
)
from repro.cluster import supervisor as supervisor_module
from repro.cluster.rebalance import moved_tenants
from repro.cluster.supervisor import (
    LISTEN_POLL_INTERVAL,
    ClusterSupervisor,
    DaemonProcess,
    free_ports,
    wait_listening,
)
from repro.errors import ClusterError, RemoteError
from repro.observability import JsonEventLogger, read_jsonl
from repro.repository import read_tree
from repro.server import DaemonThread
from tests.conftest import wait_until


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def make_tree(root, files=3, size=300_000, seed=0):
    rng = random.Random(seed)
    os.makedirs(root, exist_ok=True)
    for index in range(files):
        with open(os.path.join(root, f"file{index}.bin"), "wb") as handle:
            handle.write(rng.randbytes(size))
    return read_tree(root)


def tree_bytes(entries):
    parts = []
    for _rel, path in entries:
        with open(path, "rb") as handle:
            parts.append(handle.read())
    return b"".join(parts)


def events_from(stream):
    return [json.loads(line) for line in stream.getvalue().splitlines() if line]


# ----------------------------------------------------------------------
# Ring
# ----------------------------------------------------------------------
def test_ring_is_deterministic():
    a = HashRing(["n1", "n2", "n3"])
    b = HashRing(["n3", "n1", "n2"])  # order must not matter
    keys = [f"tenant-{i}" for i in range(100)]
    assert [a.primary(k) for k in keys] == [b.primary(k) for k in keys]
    assert [a.preference(k, 2) for k in keys] == [b.preference(k, 2) for k in keys]


def test_ring_spreads_keys():
    ring = HashRing(["n1", "n2", "n3", "n4"])
    shares = ring.shares(2000)
    assert set(shares) == {"n1", "n2", "n3", "n4"}
    for share in shares.values():
        assert 0.10 < share < 0.45  # rough balance, not perfection


def test_ring_join_moves_a_bounded_fraction():
    keys = [f"tenant-{i}" for i in range(300)]
    before = HashRing(["n1", "n2", "n3"])
    after = HashRing(["n1", "n2", "n3", "n4"])
    moved = moved_keys(before, after, keys)
    # Consistent hashing: ~1/4 of keys should move to the joiner; allow
    # generous variance for 64 vnodes, but far below full reshuffling.
    assert len(moved) < len(keys) * 0.45
    # Every moved key must now land on the new node (nothing shuffles
    # between survivors).
    for key in moved:
        assert after.primary(key) == "n4"


def test_ring_removal_restores_prior_placement():
    keys = [f"tenant-{i}" for i in range(200)]
    original = HashRing(["n1", "n2", "n3"])
    grown = HashRing(["n1", "n2", "n3", "n4"])
    shrunk = HashRing(["n1", "n2", "n3"])  # n4 left again
    assert [original.primary(k) for k in keys] == [shrunk.primary(k) for k in keys]
    assert moved_keys(grown, shrunk, keys, replicas=2) == moved_keys(
        grown, original, keys, replicas=2
    )


def test_ring_preference_is_distinct_and_clamped():
    ring = HashRing(["n1", "n2", "n3"])
    for key in ("a", "b", "c", "zz"):
        pref = ring.preference(key, 2)
        assert len(pref) == 2
        assert len(set(pref)) == 2
        assert ring.preference(key, 10) == ring.preference(key, 3)  # clamped
    with pytest.raises(ClusterError):
        HashRing([])


# ----------------------------------------------------------------------
# Map
# ----------------------------------------------------------------------
def test_cluster_map_roundtrip_and_epochs(tmp_path):
    cmap = ClusterMap(
        [NodeSpec("n1", "127.0.0.1:7101", "/srv/n1"), NodeSpec("n2", "127.0.0.1:7102")],
        epoch=3,
        replicas=2,
    )
    clone = ClusterMap.from_doc(cmap.as_doc())
    assert clone.epoch == 3
    assert [n.name for n in clone.placement("t")] == [n.name for n in cmap.placement("t")]

    path = str(tmp_path / "spec.json")
    cmap.save(path)
    assert ClusterMap.load(path).as_doc() == cmap.as_doc()

    successor = cmap.with_nodes(cmap.nodes[:1])
    assert successor.epoch == 4
    # Epoch-based invalidation: highest epoch wins, never downgrade.
    assert newer_map(cmap, successor) is successor
    assert newer_map(successor, cmap) is successor
    assert newer_map(None, cmap) is cmap

    with pytest.raises(ClusterError):
        ClusterMap([NodeSpec("x", "h:1"), NodeSpec("x", "h:2")])
    with pytest.raises(ClusterError):
        ClusterMap([NodeSpec("x", "h:1")], epoch=0)


def test_a_cluster_never_gets_one_port_twice(tmp_path):
    """Every probe stays bound until the last is, so ports are distinct."""
    ports = free_ports(64)
    assert len(set(ports)) == 64 and all(ports)
    specs = [NodeSpec(f"n{i}", "127.0.0.1:0", str(tmp_path / f"n{i}")) for i in range(32)]
    specs.append(NodeSpec("fixed", "127.0.0.1:1", str(tmp_path / "fixed")))
    addresses = [node.address for node in assign_ports(ClusterMap(specs)).nodes]
    assert len(set(addresses)) == 33 and addresses[-1] == "127.0.0.1:1"


def test_cluster_map_wire_frame(tmp_path):
    cmap = ClusterMap([NodeSpec("solo", "127.0.0.1:0", str(tmp_path / "solo"))])
    with DaemonThread(
        str(tmp_path / "solo"), cluster_map=cmap, node_name="solo"
    ) as address:
        with RemoteRepository(address, "any") as remote:
            reply = remote.cluster_map()
        assert reply["node"] == "solo"
        assert reply["map"]["epoch"] == 1
        assert reply["map"]["nodes"][0]["name"] == "solo"
    # A daemon outside any cluster answers map: null, not an error.
    with DaemonThread(str(tmp_path / "plain")) as address:
        with RemoteRepository(address, "any") as remote:
            assert remote.cluster_map()["map"] is None


# ----------------------------------------------------------------------
# Router
# ----------------------------------------------------------------------
def test_router_places_tenants_on_ring_primary(tmp_path):
    with ClusterHarness(str(tmp_path), nodes=3, replicas=2) as cmap:
        with ClusterClient([n.address for n in cmap.nodes]) as client:
            entries = make_tree(str(tmp_path / "srcA"), files=2, size=50_000)
            for tenant in ("alpha", "beta", "gamma"):
                client.repo(tenant).backup_tree(entries)
                primary = cmap.primary(tenant)
                assert os.path.isdir(os.path.join(primary.root, tenant))
                for other in cmap.nodes:
                    if other.name != primary.name:
                        assert not os.path.isdir(os.path.join(other.root, tenant))


def test_router_adopts_highest_epoch(tmp_path):
    harness = ClusterHarness(str(tmp_path), nodes=2, replicas=1)
    cmap = harness.start()
    try:
        stale = ClusterMap(cmap.nodes, epoch=1, replicas=1, vnodes=cmap.vnodes)
        with ClusterClient([cmap.nodes[0].address], cluster_map=stale) as client:
            assert client.refresh().epoch == max(cmap.epoch, stale.epoch)
        # A client seeded only with addresses bootstraps the full map.
        with ClusterClient([cmap.nodes[1].address]) as client:
            adopted = client.refresh()
            assert [n.name for n in adopted.nodes] == [n.name for n in cmap.nodes]
    finally:
        harness.stop()


def test_router_kill_primary_mid_restore_is_byte_identical(tmp_path):
    stream = io.StringIO()
    harness = ClusterHarness(str(tmp_path), nodes=3, replicas=2)
    cmap = harness.start()
    try:
        client = ClusterClient(
            [n.address for n in cmap.nodes],
            event_log=JsonEventLogger(stream, source="client"),
        )
        entries = make_tree(str(tmp_path / "src"), files=4, size=400_000, seed=3)
        expected = tree_bytes(entries)
        tenant = "victim"
        repo = client.repo(tenant)
        repo.backup_tree(entries)
        primary = cmap.primary(tenant)
        replica = cmap.successors(tenant)[0]
        # Push the copy to the ring successor, then capture its view.
        client.remote(primary.address, tenant).cluster_sync(tenant)
        versions_before = client.remote(replica.address, tenant).versions()
        assert len(versions_before) == 1

        # Hold the primary's engine once its first frame is out, so the
        # rest of the stream cannot reach the socket buffers before the
        # kill: the iterator resumes only after kill_node() has returned.
        handle = harness.threads[primary.name].daemon.registry.get(tenant)
        serve, killed = handle.repository.restore, threading.Event()

        def held_restore(version, **options):
            served_plan, blocks = serve(version, **options)

            def held():
                produced = 0
                for block in blocks:
                    if produced >= RESTORE_BLOCK:
                        assert killed.wait(60), "the primary was never killed"
                    produced += len(block)
                    yield block

            return served_plan, held()

        handle.repository.restore = held_restore
        plan, data = repo.restore(1)
        received = [next(data)]  # the stream is live on the primary
        assert len(expected) // 2 <= len(received[0]) < len(expected)

        harness.kill_node(primary.name)  # mid-stream, zero drain patience
        killed.set()

        received.extend(data)  # router must fail over and resume
        blob = b"".join(received)
        assert blob == expected  # byte-identical despite the mid-stream kill
        assert sum(size for _rel, size in plan) == len(expected)

        # The failover left a typed client event behind.
        failovers = [e for e in events_from(stream) if e["event"] == "cluster_failover"]
        assert failovers and failovers[0]["repo"] == tenant
        assert failovers[0]["failed_node"] == primary.name

        # Zero torn versions: the replica's history is exactly what it was,
        # and its copy still deep-verifies.
        assert client.remote(replica.address, tenant).versions() == versions_before
        assert client.remote(replica.address, tenant).verify(deep=True)["ok"]

        # The surviving replica recorded that it served a failover restore.
        snapshot = client.remote(replica.address, tenant).stats()["metrics"]
        assert snapshot["counters"]["cluster.failovers"] >= 1
        client.close()
    finally:
        harness.stop()


def test_mutating_ops_never_fail_over(tmp_path):
    # write_retry_timeout=0 disables the promotion-wait retry loop: with no
    # health prober running there is nothing to wait for, and a write must
    # fail loudly rather than land on a replica and fork it.
    harness = ClusterHarness(str(tmp_path), nodes=3, replicas=2)
    cmap = harness.start()
    try:
        with ClusterClient(
            [n.address for n in cmap.nodes], write_retry_timeout=0
        ) as client:
            entries = make_tree(str(tmp_path / "src"), files=1, size=20_000)
            tenant = "writer"
            repo = client.repo(tenant)
            repo.backup_tree(entries)
            primary = cmap.primary(tenant)
            client.remote(primary.address, tenant).cluster_sync(tenant)
            harness.kill_node(primary.name)
            with pytest.raises((RemoteError, OSError, ClusterError)):
                repo.backup_tree(entries)
            with pytest.raises((RemoteError, OSError, ClusterError)):
                repo.delete_oldest()
            for node in cmap.successors(tenant):
                assert len(client.remote(node.address, tenant).versions()) == 1
    finally:
        harness.stop()


# ----------------------------------------------------------------------
# Rebalance
# ----------------------------------------------------------------------
def test_rebalance_moves_only_changed_tenants(tmp_path):
    harness = ClusterHarness(str(tmp_path), nodes=3, replicas=2)
    cmap = harness.start()
    try:
        with ClusterClient([n.address for n in cmap.nodes], cluster_map=cmap) as client:
            entries = make_tree(str(tmp_path / "src"), files=2, size=80_000, seed=5)
            tenants = [f"tenant-{i}" for i in range(6)]
            for tenant in tenants:
                client.repo(tenant).backup_tree(entries)
            client.sync_all()

            # Membership change: drop the last node (its daemon stays up so
            # the rebalancer can pull from and drop-clean the old holder).
            gone = cmap.nodes[-1]
            new_map = cmap.with_nodes(cmap.nodes[:-1])
            moved = moved_tenants(cmap, new_map, tenants)
            assert moved, "expected at least one tenant to change ownership"
            unchanged = sorted(set(tenants) - set(moved))
            for tenant in unchanged:
                # Unchanged tenants never involved the dropped node.
                assert gone.name not in [n.name for n in cmap.placement(tenant)]

            report = ClusterRebalancer(client, cmap, new_map).run(tenants)
            assert report["tenants_moved"] == len(moved)
            assert report["unchanged"] == unchanged
            for move in report["moves"]:
                assert move["verified"] is True

            # Old copies on holders outside the new placement are gone...
            for move in report["moves"]:
                for old_name in move["old"]:
                    if old_name in move["new"]:
                        continue
                    old_root = next(n.root for n in cmap.nodes if n.name == old_name)
                    assert not os.path.isdir(os.path.join(old_root, move["tenant"]))
            # ...and every tenant restores byte-identically under the new map.
            expected = tree_bytes(entries)
            with ClusterClient(
                [n.address for n in new_map.nodes], cluster_map=new_map
            ) as routed:
                for tenant in tenants:
                    _plan, data = routed.repo(tenant).restore(1)
                    assert b"".join(data) == expected
    finally:
        harness.stop()


def test_rebalance_keeps_old_copy_when_verify_fails(tmp_path):
    harness = ClusterHarness(str(tmp_path), nodes=2, replicas=1)
    cmap = harness.start()
    try:
        with ClusterClient([n.address for n in cmap.nodes], cluster_map=cmap) as client:
            survivor, other = cmap.nodes[0], cmap.nodes[1]
            # Pick a tenant the shrink will actually move (primary on the
            # node being removed) — the ring is deterministic, so scan.
            victim = next(
                name for name in (f"t{i}" for i in range(64))
                if cmap.primary(name).name == other.name
            )
            # Two backups with disjoint content: the v1 chunks go cold at
            # the v2 backup and are demoted into sealed archival containers.
            # Sealed containers are diffed by *size*, which is what lets
            # the corruption below survive the re-copy inside move_tenant.
            entries = make_tree(str(tmp_path / "src"), files=2, size=400_000, seed=9)
            client.repo(victim).backup_tree(entries)
            entries = make_tree(str(tmp_path / "src"), files=2, size=400_000, seed=10)
            client.repo(victim).backup_tree(entries)
            new_map = cmap.with_nodes([survivor])
            assert moved_tenants(cmap, new_map, [victim]) == [victim]
            rebalancer = ClusterRebalancer(client, cmap, new_map)

            # First, copy the victim to its new primary, then corrupt the
            # copy in place: the container keeps its size (so the O(delta)
            # diff skips it) but deep verify must catch the flipped bytes.
            rebalancer._copy(victim, other, survivor)
            containers = os.path.join(survivor.root, victim, "containers")
            name = sorted(os.listdir(containers))[0]
            path = os.path.join(containers, name)
            blob = bytearray(open(path, "rb").read())
            blob[len(blob) // 2] ^= 0xFF
            open(path, "wb").write(bytes(blob))

            with pytest.raises(ClusterError, match="deep verify"):
                rebalancer.move_tenant(victim)
            # The old holder keeps its copy — rebalance never drops an
            # unverified tenant.
            assert os.path.isdir(os.path.join(other.root, victim))
    finally:
        harness.stop()


# ----------------------------------------------------------------------
# Process supervisor: readiness waits, per-node logs, the start unwind
# ----------------------------------------------------------------------
def test_wait_listening_gives_up_at_its_timeout(retry_clock):
    port = free_ports(1)[0]  # nobody listens there
    with pytest.raises(ClusterError, match="not accepting connections after 1s"):
        wait_listening(f"127.0.0.1:{port}", timeout=1.0)
    # A connect every 0.05 s, until the next pause would pass the timeout.
    assert set(retry_clock.sleeps) == {LISTEN_POLL_INTERVAL}
    assert retry_clock.now < 1.0 <= retry_clock.now + LISTEN_POLL_INTERVAL


def test_a_daemon_that_exited_fails_its_wait_at_once(tmp_path, retry_clock):
    node = NodeSpec("n1", f"127.0.0.1:{free_ports(1)[0]}", str(tmp_path / "n1"))
    daemon = DaemonProcess(node, str(tmp_path / "no-such-spec.json"))
    daemon.process.wait(timeout=60)
    with pytest.raises(ClusterError, match="exited with"):
        daemon.wait_ready()
    assert retry_clock.sleeps == []


def test_each_supervised_daemon_logs_to_its_own_file(tmp_path):
    cmap = assign_ports(ClusterMap(
        [NodeSpec(f"n{i}", "127.0.0.1:0", str(tmp_path / f"n{i}")) for i in (1, 2)],
        replicas=1,
    ))
    map_path = str(tmp_path / "cluster.json")
    cmap.save(map_path)
    log_dir = str(tmp_path / "logs")
    with ClusterSupervisor(cmap, map_path, log_dir=log_dir):
        for node in cmap.nodes:
            path = os.path.join(log_dir, f"{node.name}.jsonl")
            starts = wait_until(lambda: os.path.exists(path) and [
                event for event in read_jsonl(path) if event["event"] == "daemon_start"
            ])
            assert [event["address"] for event in starts] == [node.address]
    assert sorted(os.listdir(log_dir)) == ["n1.jsonl", "n2.jsonl"]


def test_a_failed_start_stops_the_daemons_it_spawned(tmp_path, monkeypatch):
    spawned = []

    class Recorded(supervisor_module.DaemonProcess):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            spawned.append(self)

    monkeypatch.setattr(supervisor_module, "DaemonProcess", Recorded)
    ports = free_ports(2)
    cmap = ClusterMap([
        NodeSpec("n1", f"127.0.0.1:{ports[0]}", str(tmp_path / "n1")),
        NodeSpec("n2", f"127.0.0.1:{ports[1]}"),  # no root: its spawn fails
    ], replicas=1)
    map_path = str(tmp_path / "cluster.json")
    cmap.save(map_path)
    supervisor = ClusterSupervisor(cmap, map_path)
    with pytest.raises(ClusterError, match="has no root"):
        supervisor.start()
    assert supervisor.daemons == {}
    assert [daemon.node.name for daemon in spawned] == ["n1"]
    assert not spawned[0].alive
