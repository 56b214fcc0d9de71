"""``hidestore`` — a small CLI over the library for real directory backups.

Commands:

* ``hidestore backup <repo> <source-dir>`` — chunk (with the
  repository's chunker: SeqCDC for a new one) + dedup + store a directory
  snapshot into the repository.
* ``hidestore restore <repo> <version> <target-dir>`` — materialise a
  stored version back into a directory.
* ``hidestore versions <repo>`` — list stored versions.
* ``hidestore stats <repo> [--detail]`` — dedup ratio, container counts,
  sizes, optional per-version fragmentation table.
* ``hidestore delete-oldest <repo>`` — expire the oldest version (GC-free).
* ``hidestore verify <repo> [--deep] [--remote HOST:PORT]`` —
  integrity-check every chunk reference (``--deep`` re-hashes payloads);
  non-zero exit on any failure.
* ``hidestore replicate <repo> <target> [--remote HOST:PORT]`` —
  incrementally mirror a repository to a directory or a mirror daemon.
* ``hidestore repair <repo> --from MIRROR [--remote HOST:PORT]`` —
  re-fetch damaged containers from a replication mirror.
* ``hidestore serve HOST:PORT --root DIR|URL`` — run the multi-tenant
  backup daemon (see :mod:`repro.server`).
* ``hidestore fake-s3 HOST:PORT`` — run the local S3-style object server
  the ``s3://`` backend targets (testing/CI only).
* research tooling: ``trace-generate`` / ``trace-stats`` / ``observe`` /
  ``simulate`` (scheme×preset matrices to CSV).

``backup`` / ``restore`` / ``versions`` / ``stats`` / ``delete-oldest``
accept ``--remote HOST:PORT``: the ``<repo>`` argument then names a tenant
on a running daemon instead of a local directory, and the same command
implementations drive a :class:`~repro.client.RemoteRepository` over the
wire — local and remote share one code path through the repository surface
(:mod:`repro.repository`).

Everywhere a command accepts a repository path it equally accepts a
**backend URL** (:mod:`repro.storage.backend`): ``file:///dir``,
``sqlite:///path/to.db`` or ``s3://host:port/bucket/prefix``, optionally
with ``?archive=URL`` to put sealed containers on a second (cold-tier)
backend.  A bare path is an implicit ``file://``.  ``hidestore fake-s3``
runs the local S3-style object server the ``s3://`` backend targets
(testing/CI only).

The ``file://`` repository layout on disk::

    <repo>/containers/container-XXXXXXXX.hdsc
    <repo>/recipes/recipe-XXXXXXXX.hdsr
    <repo>/manifests/manifest-XXXXXXXX.txt   (file boundaries per version)

File boundaries are kept in a plain-text manifest (name + byte length per
file, concatenation order), so a restore can split the reassembled stream
back into files.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .errors import ReproError
from .repository import (
    LocalRepository,
    Repository,
    materialize,
    open_repository,
    read_tree,
)
from .units import format_bytes

__all__ = ["build_parser", "main", "open_repository"]


#: Backup flags that configure the local engine; the server fixes these at
#: ``hidestore serve`` time, so combining them with --remote is an error
#: rather than a silent no-op.
_LOCAL_ONLY_DEFAULTS = {
    "history_depth": 1,
    "compress": False,
}


def _reject_local_flags(flag: str, local_kwargs: dict) -> None:
    clashing = [
        "--" + key.replace("_", "-")
        for key, default in _LOCAL_ONLY_DEFAULTS.items()
        if local_kwargs.get(key, default) != default
    ]
    if clashing:
        raise ReproError(
            f"{', '.join(clashing)} configure the local engine and have "
            f"no effect over {flag}; the server sets them via "
            "'hidestore serve'"
        )


def _cluster_client(spec: str):
    """A :class:`ClusterClient` from ``--cluster``'s argument: either a
    comma-separated seed list (``host:p1,host:p2``) or a spec-file path."""
    import os

    from .cluster import ClusterClient, ClusterMap

    if os.path.exists(spec):
        cmap = ClusterMap.load(spec)
        return ClusterClient([n.address for n in cmap.nodes], cluster_map=cmap)
    return ClusterClient(spec.split(","))


def _open_target(args: argparse.Namespace, **local_kwargs) -> Repository:
    """The repository front end a command talks to: local dir, daemon,
    or cluster router.  The only reader of ``--remote`` and ``--cluster``."""
    if args.cluster:
        if args.remote:
            raise ReproError("--remote and --cluster are mutually exclusive")
        _reject_local_flags("--cluster", local_kwargs)
        return _cluster_client(args.cluster).repo(args.repo)
    if args.remote:
        from .client import RemoteRepository

        _reject_local_flags("--remote", local_kwargs)
        return RemoteRepository(args.remote, args.repo)
    return LocalRepository(args.repo, **local_kwargs)


def cmd_backup(args: argparse.Namespace) -> int:
    """Chunk, deduplicate and store a directory snapshot."""
    entries = read_tree(args.source)
    if not entries:
        print(f"error: no files under {args.source}", file=sys.stderr)
        return 1
    with _open_target(
        args, history_depth=args.history_depth, compress=args.compress,
    ) as repo:
        report = repo.backup_tree(entries, tag=args.tag or "")
    print(
        f"backed up version {report['version_id']}: "
        f"{report['total_chunks']} chunks, "
        f"{format_bytes(report['logical_bytes'])} logical, "
        f"{format_bytes(report['stored_bytes'])} stored "
        f"({report['duplicate_chunks']} duplicates)"
    )
    return 0


def cmd_restore(args: argparse.Namespace) -> int:
    """Materialise a stored version back into a directory."""
    # Restore knobs run on whichever side executes the restore: locally they
    # size this process's reader pool, over --remote they ride in
    # RESTORE_BEGIN and size the server's (clamped to its cap).
    with _open_target(args) as repo:
        plan, data = repo.restore(
            args.version, workers=args.workers, verify=args.verify, file=args.file,
        )
        restored = materialize(plan, data, args.target)
    print(f"restored version {args.version}: {restored} files into {args.target}")
    return 0


def cmd_versions(args: argparse.Namespace) -> int:
    """List stored versions with tags and sizes."""
    with _open_target(args) as repo:
        rows = repo.versions()
    for row in rows:
        print(
            f"version {row['version_id']}: tag={row['tag']!r} "
            f"chunks={row['chunks']} "
            f"logical={format_bytes(row['logical_bytes'])}"
        )
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Print repository statistics (optionally per-version detail)."""
    with _open_target(args) as repo:
        stats = repo.stats()
        _print_stats(stats, args.metrics)
        if not args.detail:
            return 0
        if "counters" in stats:  # a service's document
            print("error: --detail is not available over --remote/--cluster",
                  file=sys.stderr)
            return 1
        from .analysis import fragmentation_growth

        store = repo._open()
        print()
        print(f"{'version':>8s} {'chunks':>8s} {'logical':>12s} "
              f"{'containers':>11s} {'CFL':>6s} {'best sf':>8s}")
        frags = {f.version_id: f for f in fragmentation_growth(store)}
        for version_id in store.recipes.version_ids():
            recipe = store.recipes.peek(version_id)
            frag = frags[version_id]
            print(f"{version_id:>8d} {len(recipe):>8d} "
                  f"{format_bytes(recipe.logical_size):>12s} "
                  f"{frag.containers_referenced:>11d} {frag.cfl:>6.2f} "
                  f"{frag.best_speed_factor:>8.3f}")
    return 0


def _print_stats(stats: dict, with_metrics: bool) -> None:
    print(f"versions:         {stats['versions']}")
    print(f"logical bytes:    {format_bytes(stats['logical_bytes'])}")
    print(f"stored bytes:     {format_bytes(stats['stored_bytes'])}")
    print(f"dedup ratio:      {stats['dedup_ratio']:.2%}")
    print(f"containers:       {stats['containers_archival']} archival, "
          f"{stats['containers_active']} active")
    if "chunker" in stats:  # absent from an older daemon's reply
        spec = stats["chunker"]
        print(f"chunker:          {spec['name']} (min {spec['min_size']}, "
              f"avg {spec['avg_size']}, max {spec['max_size']})")
    if "counters" in stats:  # remote repositories report service counters
        counters = stats["counters"]
        print(f"sessions:         {stats.get('active_sessions', 0)} active, "
              f"write queue depth {stats.get('write_queue_depth', 0)}")
        print(f"service counters: {counters['backups']} backups "
              f"({counters['backups_failed']} failed), "
              f"{counters['restores']} restores, "
              f"{format_bytes(counters['bytes_ingested'])} ingested, "
              f"{format_bytes(counters['bytes_restored'])} restored")
    if with_metrics:
        if "metrics" in stats:  # a service reports its own registry
            metrics = stats["metrics"]
        else:
            from .observability import get_registry

            metrics = get_registry().snapshot()
            if not any(metrics.values()):
                # Local metrics live in the recording process; a fresh
                # `stats` process has nothing to show.  Point at the
                # places that do.
                print()
                print("no local metrics recorded in this process; run an "
                      "operation first or query a daemon with --remote")
        _print_metrics(metrics)


def _print_metrics(metrics: dict) -> None:
    """Render a metrics snapshot: latency table, then counters/gauges."""
    histograms = metrics.get("histograms", {})
    if histograms:
        print()
        print(f"{'operation latency':<34s} {'count':>7s} {'p50 ms':>9s} "
              f"{'p95 ms':>9s} {'p99 ms':>9s}")
        for name in sorted(histograms):
            snap = histograms[name]
            print(f"{name:<34s} {snap['count']:>7d} "
                  f"{snap['p50'] * 1000:>9.2f} {snap['p95'] * 1000:>9.2f} "
                  f"{snap['p99'] * 1000:>9.2f}")
    counters = metrics.get("counters", {})
    if counters:
        print()
        for name in sorted(counters):
            print(f"{name:<34s} {counters[name]}")
    gauges = metrics.get("gauges", {})
    if gauges:
        print()
        for name in sorted(gauges):
            print(f"{name:<34s} {gauges[name]}")


def cmd_delete_oldest(args: argparse.Namespace) -> int:
    """Expire the oldest retained version, GC-free."""
    with _open_target(args) as repo:
        result = repo.delete_oldest()
    print(
        f"deleted version {result['version_id']}: "
        f"{result['containers_deleted']} containers, "
        f"{format_bytes(result['bytes_reclaimed'])} reclaimed "
        f"in {result['delete_seconds'] * 1000:.2f} ms (no GC)"
    )
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    """Integrity-check a repository; non-zero exit on any failure."""
    with _open_target(args) as repo:
        doc = repo.verify(deep=args.deep)
    print(doc["summary"])
    for issue in doc["issues"][:50]:
        print(f"  - {issue}")
    if doc["issues_total"] > 50:
        print(f"  ... and {doc['issues_total'] - 50} more")
    return 0 if doc["ok"] else 1


def cmd_replicate(args: argparse.Namespace) -> int:
    """Incrementally mirror a repository to a directory or mirror daemon."""
    from .replication import ReplicationSession, open_target

    target = open_target(args.target, args.mirror_daemon)
    try:
        session = ReplicationSession(args.repo, target, journal=args.journal)
        if args.dry_run:
            plan = session.plan()
            summary = plan.summary()
            print(
                f"would ship {summary['ships']} objects "
                f"({format_bytes(summary['bytes_to_ship'])}), "
                f"delete {summary['deletes']}, "
                f"skip {summary['containers_skipped']} containers already mirrored"
            )
            return 0
        report = session.run()
        where = (
            f"{args.target} on {args.mirror_daemon}" if args.mirror_daemon else args.target
        )
        print(
            f"replicated {args.repo} -> {where}: "
            f"{report.objects_shipped} objects "
            f"({format_bytes(report.bytes_shipped)}) shipped, "
            f"{report.containers_skipped} containers already mirrored, "
            f"{report.objects_deleted} expired objects deleted "
            f"in {report.duration_seconds:.2f}s"
        )
        if session.journal_path:
            print(f"sync journal: {session.journal_path}")
        return 0
    finally:
        target.close()


def cmd_repair(args: argparse.Namespace) -> int:
    """Re-fetch damaged containers from a replication mirror."""
    from .replication import open_target, repair_from_mirror

    mirror = open_target(args.mirror, args.mirror_daemon)
    try:
        report = repair_from_mirror(args.repo, mirror, deep=not args.shallow)
    finally:
        mirror.close()
    print(report.summary())
    for name in report.repaired:
        print(f"  repaired {name}")
    for name, reason in sorted(report.unrepaired.items()):
        print(f"  FAILED   {name}: {reason}")
    return 0 if report.ok else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the multi-tenant backup daemon until SIGTERM/SIGINT."""
    import signal
    import threading

    from .client.remote import parse_address
    from .observability import open_event_log
    from .server import BackupDaemon

    host, port = parse_address(args.address)
    event_log = open_event_log(args.log_json, source="daemon")
    cluster_map = None
    if getattr(args, "cluster_map", None):
        from .cluster import ClusterMap

        cluster_map = ClusterMap.load(args.cluster_map)
    daemon = BackupDaemon(
        args.root,
        host=host,
        port=port,
        history_depth=args.history_depth,
        compress=args.compress,
        drain_timeout=args.drain_timeout,
        restore_workers=args.restore_workers,
        event_log=event_log,
        metrics_interval=args.metrics_interval,
        cluster_map=cluster_map,
        node_name=getattr(args, "node", None),
        replicate_interval=getattr(args, "replicate_interval", 0.0),
        probe_interval=getattr(args, "probe_interval", 0.0),
        probe_failures=getattr(args, "probe_failures", 3),
        probe_timeout=getattr(args, "probe_timeout", 2.0),
    )

    stop = threading.Event()
    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, lambda *_: stop.set())
    try:
        daemon.start()
        print(f"hidestore daemon listening on {daemon.address} (root {args.root})",
              flush=True)
        stop.wait()
        print("draining: waiting for in-flight sessions...", flush=True)
        daemon.shutdown()
        print("daemon stopped", flush=True)
    finally:
        event_log.close()
    return 0


# ----------------------------------------------------------------------
# Cluster operations (sharded multi-daemon deployments)
# ----------------------------------------------------------------------
def cmd_cluster_serve(args: argparse.Namespace) -> int:
    """Spawn one daemon process per node in a cluster spec and supervise."""
    import signal
    import time

    from .cluster import ClusterMap, ClusterSupervisor, assign_ports

    cmap = ClusterMap.load(args.spec)
    materialized = assign_ports(cmap)
    if [n.address for n in materialized.nodes] != [n.address for n in cmap.nodes]:
        # :0 ports got real numbers; persist them so clients can route.
        materialized.save(args.spec)
        cmap = materialized
    supervisor = ClusterSupervisor(
        cmap, args.spec, replicate_interval=args.replicate_interval,
        log_dir=args.log_dir,
        probe_interval=args.probe_interval,
        probe_failures=args.probe_failures,
        probe_timeout=args.probe_timeout,
    )
    stopping = []
    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, lambda *_: stopping.append(True))
    supervisor.start()
    print(
        f"cluster up: {len(cmap.nodes)} daemons, epoch {cmap.epoch}, "
        f"replicas {cmap.replicas}",
        flush=True,
    )
    for node in cmap.nodes:
        print(f"  {node.name}: {node.address} (root {node.root})", flush=True)
    reported = set()
    try:
        while not stopping:
            time.sleep(0.2)
            for name, daemon in supervisor.daemons.items():
                if not daemon.alive and name not in reported:
                    reported.add(name)
                    print(
                        f"warning: daemon {name} exited with "
                        f"{daemon.process.returncode} (not restarting; restore "
                        "traffic fails over to its replicas)",
                        flush=True,
                    )
    finally:
        print("stopping cluster...", flush=True)
        supervisor.stop()
    print("cluster stopped", flush=True)
    return 0


def cmd_cluster_status(args: argparse.Namespace) -> int:
    """Per-node liveness, tenants and (optionally) cluster metrics."""
    client = _cluster_client(args.seeds)
    try:
        doc = client.status(with_metrics=args.metrics)
    finally:
        client.close()
    stale = "  MAP MAY BE STALE (no node answered the last refresh)" \
        if doc.get("stale") else ""
    print(f"cluster epoch {doc['epoch']}, replicas {doc['replicas']}{stale}")
    if doc.get("down"):
        print(f"  marked down (failed over): {', '.join(doc['down'])}")
    exit_code = 1 if doc.get("stale") else 0
    for row in doc["nodes"]:
        marked = " [marked down]" if row.get("marked_down") else ""
        if not row.get("alive"):
            print(f"  {row['name']:<10s} {row['address']:<22s} "
                  f"DOWN{marked} ({row['error']})")
            exit_code = 1
            continue
        drain = " draining" if row.get("draining") else ""
        if "stats_error" in row:
            # Reachable but degraded: the map frame answered, STATS did not.
            print(
                f"  {row['name']:<10s} {row['address']:<22s} up{drain}{marked} "
                f"epoch={row['epoch']} STATS UNAVAILABLE ({row['stats_error']})"
            )
            exit_code = 1
            continue
        print(
            f"  {row['name']:<10s} {row['address']:<22s} up{drain}{marked} "
            f"epoch={row['epoch']} tenants={len(row['tenants'])} "
            f"conns={row['active_connections']} "
            f"uptime={row['uptime_seconds']}s"
        )
        if row["tenants"]:
            print(f"             tenants: {', '.join(row['tenants'])}")
        for name, value in row.get("cluster_metrics", {}).items():
            print(f"             {name:<32s} {value}")
    return exit_code


def cmd_cluster_sync(args: argparse.Namespace) -> int:
    """Ask every node to replicate its primary-owned tenants now."""
    client = _cluster_client(args.seeds)
    try:
        reports = client.sync_all()
    finally:
        client.close()
    failures = 0
    for report in reports:
        node = report.get("node", "?")
        if "error" in report:
            print(f"  {node}: FAILED ({report['error']})")
            failures += 1
            continue
        synced = report.get("synced", {})
        errors = report.get("errors", {})
        detail = ", ".join(
            f"{tenant}->{'/'.join(sorted(copies)) or 'no successors'}"
            for tenant, copies in sorted(synced.items())
        ) or "nothing owned"
        print(f"  {node}: {detail}")
        for pair, message in sorted(errors.items()):
            print(f"    FAILED {pair}: {message}")
            failures += 1
    return 1 if failures else 0


def cmd_cluster_rebalance(args: argparse.Namespace) -> int:
    """Move only the tenants whose ring ownership changed between specs."""
    from .cluster import ClusterClient, ClusterMap, ClusterRebalancer

    old = ClusterMap.load(args.old_spec)
    new = ClusterMap.load(args.new_spec)
    if new.epoch <= old.epoch:
        new = ClusterMap(new.nodes, epoch=old.epoch + 1,
                         replicas=new.replicas, vnodes=new.vnodes)
        new.save(args.new_spec)
        print(f"bumped new spec to epoch {new.epoch} (must exceed {old.epoch})")
    client = ClusterClient([n.address for n in new.nodes], cluster_map=new)
    try:
        report = ClusterRebalancer(client, old, new).run()
    finally:
        client.close()
    print(
        f"rebalance epoch {report['old_epoch']} -> {report['new_epoch']}: "
        f"{report['tenants_moved']} of {report['tenants_checked']} tenants "
        f"moved in {report['duration_seconds']}s"
    )
    for move in report["moves"]:
        shipped = sum(c["bytes_shipped"] for c in move["copies"])
        print(
            f"  {move['tenant']}: {'/'.join(move['old'])} -> "
            f"{'/'.join(move['new'])} ({format_bytes(shipped)} shipped, "
            f"verified, dropped from {', '.join(move['dropped']) or 'nowhere'})"
        )
    if report["unchanged"]:
        print(f"  unchanged: {', '.join(report['unchanged'])}")
    return 0


# ----------------------------------------------------------------------
# Research tooling: traces, observation, experiment matrices
# ----------------------------------------------------------------------
def cmd_trace_generate(args: argparse.Namespace) -> int:
    """Write a preset workload out as a trace file."""
    from .workloads import load_preset, write_trace

    workload = load_preset(
        args.preset, versions=args.versions, chunks_per_version=args.chunks
    )
    count = write_trace(args.output, workload.versions())
    print(f"wrote {count} versions of {args.preset!r} to {args.output}")
    return 0


def cmd_trace_stats(args: argparse.Namespace) -> int:
    """Print the §4 suitability report for a trace."""
    from .analysis import trace_suitability
    from .workloads import iter_trace

    report = trace_suitability(iter_trace(args.trace))
    print(report.summary())
    return 0


def cmd_observe(args: argparse.Namespace) -> int:
    """Run the §3 version-tag experiment over a trace."""
    from .analysis import format_observation_table, run_observation
    from .workloads import iter_trace

    result = run_observation(iter_trace(args.trace))
    print(format_observation_table(result, max_tags=args.tags))
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    """Run a scheme×preset experiment matrix (§5.1 configurations), optionally to CSV."""
    from .experiments import run_matrix, write_csv
    from .units import parse_bytes

    header = (
        f"{'scheme':<10s} {'workload':<9s} {'dedup':>7s} {'lkp/GB':>8s} "
        f"{'idx B/MB':>9s} {'sf(new)':>8s} {'sf(mid)':>8s} {'sf(old)':>8s}"
    )
    print(header)
    print("-" * len(header))
    rows = run_matrix(
        {name: {} for name in args.schemes.split(",")},
        args.presets.split(","),
        versions=args.versions,
        chunks_per_version=args.chunks,
        container_size=parse_bytes(args.container_size),
        progress=lambda row: print(
            f"{row['scheme']:<10s} {row['workload']:<9s} {row['dedup_ratio']:>7.2%} "
            f"{row['lookups_per_gb']:>8.0f} {row['index_bytes_per_mb']:>9.1f} "
            f"{row['speed_factor_last']:>8.3f} {row['speed_factor_mid']:>8.3f} "
            f"{row['speed_factor_first']:>8.3f}"
        ),
    )
    if args.output:
        write_csv(rows, args.output)
        print(f"wrote {len(rows)} rows to {args.output}")
    return 0


def cmd_fake_s3(args: argparse.Namespace) -> int:
    """Run the local S3-style object server (testing/CI only)."""
    from .storage.fake_s3 import main as fake_s3_main

    argv = [args.listen]
    if args.latency_ms:
        argv += ["--latency-ms", str(args.latency_ms)]
    if args.log:
        argv += ["--log", args.log]
    return fake_s3_main(argv)


#: Help text every repository positional shares: bare path or backend URL.
_REPO_SPEC_HELP = (
    "repository directory or backend URL (file:///dir, sqlite:///path.db, "
    "s3://host:port/bucket/prefix; add ?archive=URL for a cold tier)"
)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_remote_flag(parser: argparse.ArgumentParser, dest: str = "remote") -> None:
    parser.add_argument(
        "--remote",
        dest=dest,
        metavar="HOST:PORT",
        default=None,
        help="drive a backup daemon instead of a local directory; "
             "<repo> then names a tenant on the server",
    )


def _add_cluster_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--cluster",
        metavar="SEEDS|SPEC",
        default=None,
        help="route through a sharded cluster instead of one daemon: "
             "comma-separated seed addresses (host:p1,host:p2) or a "
             "cluster spec file; <repo> is placed on its ring primary, "
             "and idempotent reads fail over to replicas",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="hidestore",
        description="HiDeStore reproduction: physical-locality dedup backup",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("backup", help="back up a directory snapshot")
    p.add_argument("repo", help=_REPO_SPEC_HELP)
    p.add_argument("source")
    p.add_argument("--tag", default=None)
    p.add_argument("--history-depth", type=_positive_int, default=1)
    p.add_argument("--compress", action="store_true",
                   help="zlib-compress container files on disk")
    _add_remote_flag(p)
    _add_cluster_flag(p)
    p.set_defaults(func=cmd_backup)

    p = sub.add_parser("restore", help="restore a version into a directory")
    p.add_argument("repo", help=_REPO_SPEC_HELP)
    p.add_argument("version", type=int)
    p.add_argument("target")
    p.add_argument("--workers", type=_positive_int, default=None,
                   help="container-reader pool size; >1 prefetches "
                        "container reads ahead of reassembly (local: this "
                        "process; --remote: the server, up to its cap)")
    p.add_argument("--verify", action="store_true",
                   help="re-hash every chunk against its recorded "
                        "fingerprint while restoring")
    p.add_argument("--file", metavar="REL", default=None,
                   help="restore only this file from the snapshot (reads "
                        "just the containers covering it)")
    _add_remote_flag(p)
    _add_cluster_flag(p)
    p.set_defaults(func=cmd_restore)

    p = sub.add_parser("versions", help="list stored versions")
    p.add_argument("repo", help=_REPO_SPEC_HELP)
    _add_remote_flag(p)
    _add_cluster_flag(p)
    p.set_defaults(func=cmd_versions)

    p = sub.add_parser("stats", help="repository statistics")
    p.add_argument("repo", help=_REPO_SPEC_HELP)
    p.add_argument("--detail", action="store_true",
                   help="per-version fragmentation table (local only)")
    p.add_argument("--metrics", action="store_true",
                   help="operation latency histograms (p50/p95/p99) and "
                        "counters; remote: the server's metrics snapshot")
    _add_remote_flag(p)
    _add_cluster_flag(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("delete-oldest", help="expire the oldest version")
    p.add_argument("repo", help=_REPO_SPEC_HELP)
    _add_remote_flag(p)
    _add_cluster_flag(p)
    p.set_defaults(func=cmd_delete_oldest)

    p = sub.add_parser("verify", help="integrity-check the repository")
    p.add_argument("repo", help=_REPO_SPEC_HELP)
    p.add_argument("--deep", action="store_true",
                   help="also re-hash every stored chunk payload and "
                        "container file (catches silent bit-flips)")
    _add_remote_flag(p)
    _add_cluster_flag(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "replicate",
        help="incrementally mirror a repository to a directory or daemon",
    )
    p.add_argument("repo", help="source repository: " + _REPO_SPEC_HELP)
    p.add_argument("target",
                   help="mirror directory or backend URL, or tenant name "
                        "with --remote")
    p.add_argument("--journal", default=None,
                   help="sync-journal path (default: <repo>/.replication/ "
                        "for directory sources; disabled for URL sources)")
    p.add_argument("--dry-run", action="store_true",
                   help="print the sync plan without shipping anything")
    _add_remote_flag(p, dest="mirror_daemon")
    p.set_defaults(func=cmd_replicate)

    p = sub.add_parser(
        "repair",
        help="re-fetch damaged containers from a replication mirror",
    )
    p.add_argument("repo", help="repository to repair: " + _REPO_SPEC_HELP)
    p.add_argument("--from", dest="mirror", required=True, metavar="MIRROR",
                   help="mirror directory or backend URL, or tenant name "
                        "with --remote")
    p.add_argument("--shallow", action="store_true",
                   help="skip payload re-hashing when scanning for damage")
    _add_remote_flag(p, dest="mirror_daemon")
    p.set_defaults(func=cmd_repair)

    p = sub.add_parser("serve", help="run the multi-tenant backup daemon")
    p.add_argument("address", metavar="HOST:PORT",
                   help="listen address (port 0 picks a free port)")
    p.add_argument("--root", required=True, metavar="DIR|URL",
                   help="tenant root: a directory holding one repository "
                        "per tenant, or a backend URL (sqlite:// keeps one "
                        ".db per tenant, s3:// one key prefix per tenant; "
                        "?archive=URL fans the cold tier out per tenant). "
                        "The old directory-only '--root DIR' phrasing is "
                        "deprecated — bare paths keep working as an "
                        "implicit file:// root")
    p.add_argument("--history-depth", type=_positive_int, default=1)
    p.add_argument("--compress", action="store_true",
                   help="zlib-compress container files of new repositories")
    p.add_argument("--drain-timeout", type=float, default=10.0,
                   help="seconds in-flight sessions get to finish on shutdown")
    p.add_argument("--restore-workers", type=_positive_int, default=4,
                   help="cap on the prefetching container-reader pool a "
                        "restore may ask for with --workers (a restore "
                        "that asks for none is served serially)")
    p.add_argument("--log-json", metavar="PATH|-", default=None,
                   help="write structured JSON-lines events (sessions, "
                        "per-request begin/end with trace IDs) to a file, "
                        "or '-' for stdout")
    p.add_argument("--metrics-interval", type=float, default=0.0,
                   help="seconds between periodic metrics_report events in "
                        "the JSON log (0 disables)")
    p.add_argument("--cluster-map", metavar="SPEC", default=None,
                   help="join a sharded cluster: path to the cluster spec "
                        "(epoch, replicas, node list); served to clients "
                        "over the CLUSTER_MAP frame")
    p.add_argument("--node", metavar="NAME", default=None,
                   help="this daemon's node name inside --cluster-map")
    p.add_argument("--replicate-interval", type=float, default=0.0,
                   help="seconds between automatic replica syncs of "
                        "primary-owned tenants to their ring successors "
                        "(0 disables; needs --cluster-map and --node)")
    p.add_argument("--probe-interval", type=float, default=0.0,
                   help="seconds between health probes of this node's ring "
                        "predecessor (0 disables; needs --cluster-map and "
                        "--node).  Enables automatic failover: after "
                        "--probe-failures consecutive misses this daemon "
                        "marks the peer down in an epoch-bumped map, "
                        "deep-verifies the replicas it inherits, and "
                        "gossips the new map")
    p.add_argument("--probe-failures", type=_positive_int, default=3,
                   help="consecutive failed probes before a peer is "
                        "declared dead")
    p.add_argument("--probe-timeout", type=float, default=2.0,
                   help="per-probe connect/read deadline in seconds")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("cluster", help="sharded multi-daemon cluster operations")
    cluster_sub = p.add_subparsers(dest="cluster_command", required=True)

    p = cluster_sub.add_parser(
        "serve", help="spawn one daemon process per node in a cluster spec")
    p.add_argument("spec", help="cluster spec JSON (epoch, replicas, nodes "
                                "with name/address/root); ':0' ports are "
                                "materialised and written back")
    p.add_argument("--replicate-interval", type=float, default=0.0,
                   help="per-daemon automatic replica-sync interval in "
                        "seconds (0 disables)")
    p.add_argument("--probe-interval", type=float, default=0.0,
                   help="per-daemon health-probe interval in seconds "
                        "(0 disables automatic failover)")
    p.add_argument("--probe-failures", type=_positive_int, default=3,
                   help="consecutive failed probes before a node is "
                        "declared dead and its successor promotes")
    p.add_argument("--probe-timeout", type=float, default=2.0,
                   help="per-probe connect/read deadline in seconds")
    p.add_argument("--log-dir", metavar="DIR", default=None,
                   help="write one JSON-lines event log per daemon "
                        "(<DIR>/<node>.jsonl)")
    p.set_defaults(func=cmd_cluster_serve)

    p = cluster_sub.add_parser(
        "status", help="per-node liveness, tenants and cluster metrics")
    p.add_argument("seeds", metavar="SEEDS|SPEC",
                   help="comma-separated daemon addresses or a spec file")
    p.add_argument("--metrics", action="store_true",
                   help="show each node's cluster.* counters (requests "
                        "routed, failovers, tenants moved, replica syncs)")
    p.set_defaults(func=cmd_cluster_status)

    p = cluster_sub.add_parser(
        "sync", help="replicate every primary-owned tenant to its successors")
    p.add_argument("seeds", metavar="SEEDS|SPEC",
                   help="comma-separated daemon addresses or a spec file")
    p.set_defaults(func=cmd_cluster_sync)

    p = cluster_sub.add_parser(
        "rebalance",
        help="move only the tenants whose ring ownership changed between "
             "two specs (deep-verifies before dropping old copies)")
    p.add_argument("old_spec", help="the spec the data was placed under")
    p.add_argument("new_spec", help="the target spec (daemons must be "
                                    "running on it); epoch is auto-bumped "
                                    "if not already above the old spec's")
    p.set_defaults(func=cmd_cluster_rebalance)

    p = sub.add_parser(
        "fake-s3",
        help="run the local S3-style object server (testing/CI only)",
    )
    p.add_argument("listen", metavar="HOST:PORT",
                   help="bind address (port 0 picks a free port)")
    p.add_argument("--latency-ms", type=float, default=0.0,
                   help="artificial per-request latency in milliseconds")
    p.add_argument("--log", metavar="PATH", default=None,
                   help="append a JSONL request log to PATH")
    p.set_defaults(func=cmd_fake_s3)

    p = sub.add_parser("trace-generate", help="write a preset workload as a trace file")
    p.add_argument("preset", choices=["kernel", "gcc", "fslhomes", "macos"])
    p.add_argument("output")
    p.add_argument("--versions", type=int, default=None)
    p.add_argument("--chunks", type=int, default=None)
    p.set_defaults(func=cmd_trace_generate)

    p = sub.add_parser("trace-stats", help="suitability report for a trace (§4)")
    p.add_argument("trace")
    p.set_defaults(func=cmd_trace_stats)

    p = sub.add_parser("observe", help="the §3 version-tag experiment on a trace")
    p.add_argument("trace")
    p.add_argument("--tags", type=int, default=8)
    p.set_defaults(func=cmd_observe)

    p = sub.add_parser("simulate", help="run a scheme×preset matrix, optional CSV")
    p.add_argument("--schemes", default="ddfs,sparse,silo,hidestore")
    p.add_argument("--presets", default="kernel")
    p.add_argument("--versions", type=int, default=None)
    p.add_argument("--chunks", type=int, default=1024)
    p.add_argument("--container-size", default="512KiB")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
