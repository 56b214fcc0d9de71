"""Cluster failover write availability: SIGKILL a primary daemon, time
the next landed write.

Spawns real daemon *processes* (``ClusterSupervisor`` — the same shape
``hidestore cluster serve`` deploys) and drives the tenants through the
client-side router (:class:`~repro.cluster.ClusterClient`).
"""

import os
import random
import time

from common import emit, table, write_bench_json
from repro.cluster import ClusterClient, ClusterMap, ClusterSupervisor, NodeSpec
from repro.observability import read_jsonl
from repro.units import MiB

#: Versions of the failover tenant and logical bytes per version.
VERSIONS = 2
VERSION_BYTES = 4 * MiB

#: Fraction of each version's bytes rewritten from the previous one.
CHURN = 0.25


def _versions_for(seed):
    rng = random.Random(seed)
    base = bytearray(rng.randbytes(VERSION_BYTES))
    streams = []
    for _ in range(VERSIONS):
        streams.append(bytes(base))
        edit = rng.randrange(0, VERSION_BYTES // 2)
        span = int(VERSION_BYTES * CHURN)
        base[edit : edit + span] = rng.randbytes(span)
    return streams


# ----------------------------------------------------------------------
# Failover write availability: SIGKILL the primary, time the next write
# ----------------------------------------------------------------------

#: Health-probe settings for the failover scenario — aggressive so the
#: detection window dominates neither the bench nor CI wall clock.
FAILOVER_PROBE_INTERVAL = 0.25
FAILOVER_PROBE_FAILURES = 2
FAILOVER_PROBE_TIMEOUT = 1.0


#: Logical sizes of the extra tenants whose promotion verify is timed, as
#: counts of fresh VERSION_BYTES backups: time-to-writable after a
#: failover is the deep verify, and the deep verify scales with the tenant.
PROMOTE_VERIFY_VERSIONS = (1, 2, 4)


def _promotion_verify_seconds(log_path):
    """``{tenant: verify_seconds}`` from the daemons' promotion events."""
    return {
        event["repo"]: event["verify_seconds"]
        for event in read_jsonl(log_path)
        if event.get("event") == "cluster_promotion_verified"
    }


def test_failover_write_availability(benchmark, tmp_path):
    """Kill a tenant's primary daemon mid-deployment and measure how long
    the very next ``backup`` takes to land — detection, promotion, deep
    verify and the router's map-refresh retry included.  Reported as
    ``failover_write_seconds`` in ``BENCH_cluster_failover.json``, beside
    ``promote_verify_seconds``: the promotion gate's own deep verify, as
    the promoted daemons logged it, for three sizes of tenant."""
    root = str(tmp_path / "failover")
    specs = [
        NodeSpec(f"n{i + 1}", "127.0.0.1:0", os.path.join(root, f"n{i + 1}"))
        for i in range(3)
    ]
    from repro.cluster import assign_ports

    cmap = assign_ports(ClusterMap(specs, replicas=2))
    map_path = os.path.join(root, "cluster.json")
    os.makedirs(root, exist_ok=True)
    cmap.save(map_path)

    tenant = "failover-tenant"
    streams = _versions_for(seed=99)
    results = {}
    log_path = os.path.join(root, "events.jsonl")
    # Tenants of growing size that live on the node about to die.
    doomed = cmap.primary(tenant).name
    sized = {}
    for versions in PROMOTE_VERIFY_VERSIONS:
        sized[next(
            name for name in (f"sized-{versions}-{i}" for i in range(10_000))
            if cmap.primary(name).name == doomed
        )] = versions
    rng = random.Random(7)

    def run_failover():
        with ClusterSupervisor(
            cmap, map_path,
            probe_interval=FAILOVER_PROBE_INTERVAL,
            probe_failures=FAILOVER_PROBE_FAILURES,
            probe_timeout=FAILOVER_PROBE_TIMEOUT,
            log_json=log_path,
        ) as supervisor:
            with ClusterClient(
                [n.address for n in cmap.nodes], cluster_map=cmap,
                write_retry_timeout=60.0,
            ) as client:
                repo = client.repo(tenant)
                plan = [("stream-0.bin", len(streams[0]))]
                repo.backup_blocks([streams[0]], plan, tag="v1")
                primary = cmap.primary(tenant)
                # Replicate v1 to the successor, then SIGKILL the primary.
                from repro.client import RemoteRepository

                for name, versions in sized.items():
                    for index in range(versions):
                        plan = [(f"stream-{index}.bin", VERSION_BYTES)]
                        client.repo(name).backup_blocks(
                            [rng.randbytes(VERSION_BYTES)], plan, tag=f"v{index + 1}"
                        )
                seeder = RemoteRepository(primary.address, tenant)
                try:
                    for name in (tenant, *sized):
                        seeder.cluster_sync(name)
                finally:
                    seeder.close()
                supervisor.kill_node(primary.name)

                started = time.perf_counter()
                plan = [("stream-1.bin", len(streams[1]))]
                report = repo.backup_blocks([streams[1]], plan, tag="v2")
                elapsed = time.perf_counter() - started
                assert report["version_id"] == 2

                fresh = client.refresh()
                assert primary.name in fresh.down_names()
                restored = bytearray()
                _plan, data = repo.restore(2)
                for block in data:
                    restored += block
                assert bytes(restored) == streams[1]
                results["failover_write_seconds"] = elapsed
                # One small write per sized tenant: each passes the
                # promotion gate on its new primary, which logs the verify.
                for name in sized:
                    client.repo(name).backup_blocks(
                        [b"after failover"], [("late.bin", 14)], tag="late"
                    )
        verified = _promotion_verify_seconds(log_path)
        results["promote_verify_seconds"] = [
            {"logical_bytes": versions * VERSION_BYTES, "verify_seconds": verified[name]}
            for name, versions in sized.items()
        ]
        return elapsed

    benchmark.pedantic(run_failover, rounds=1, iterations=1)

    detection_floor = FAILOVER_PROBE_FAILURES * FAILOVER_PROBE_INTERVAL
    doc = {
        "nodes": 3,
        "replicas": 2,
        "version_bytes": VERSION_BYTES,
        "probe_interval": FAILOVER_PROBE_INTERVAL,
        "probe_failures": FAILOVER_PROBE_FAILURES,
        "probe_timeout": FAILOVER_PROBE_TIMEOUT,
        "detection_floor_seconds": detection_floor,
        "failover_write_seconds": results["failover_write_seconds"],
        "promote_verify_seconds": results["promote_verify_seconds"],
        "cpu_count": os.cpu_count(),
    }
    write_bench_json("cluster_failover", doc)
    emit(
        f"write availability after primary SIGKILL: "
        f"{doc['failover_write_seconds']:.2f}s to the next landed backup "
        f"(probe floor {detection_floor:.2f}s, no operator action)"
    )
    table(
        ["tenant MiB", "promotion verify s"],
        [[row["logical_bytes"] // MiB, f"{row['verify_seconds']:.3f}"]
         for row in doc["promote_verify_seconds"]],
    )
    # The write must land via automatic promotion, comfortably inside the
    # router's retry budget; measured ~1.3 s, so 10 s is already a hang.
    assert doc["failover_write_seconds"] < 10.0
