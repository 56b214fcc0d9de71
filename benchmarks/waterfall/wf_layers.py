"""The per-layer metrics: their names, and how a traced pass fills them.

Names are ``<module>.<metric>`` after the module under ``src/repro`` that
does the work.  In-process workloads fill them from the span recorder;
``cluster-mixed`` runs its layers in daemon processes, so there they come
from the daemons' own registries (read through ``server_stats()`` before and
after the traced steps) and from the client's registry.  A metric whose
layer a workload never enters reads 0 on it — for example every ``client.*``
on a local workload — and the span-only metrics (``chunking.split_s``,
``core.*``) read 0 on ``cluster-mixed``, where the daemons' registries do not
break them out.
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

from wf_gen import MiB
from wf_spans import Recorder

LADDER_RUNGS: Tuple[str, ...] = (
    "split", "fingerprint", "double_cache", "hidestore_mem", "hidestore_file",
    "local", "daemon", "cluster1", "cluster3r2",
)

_S, _COUNT, _BYTES, _RATIO, _MBPS = "s", "count", "bytes", "ratio", "MiB/s"

#: (name, unit, better) of every per-layer metric, ladder rungs last.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("chunking.split_s", _S, "lower"),
    ("chunking.split_mbps", _MBPS, "higher"),
    ("chunking.fingerprint_s", _S, "lower"),
    ("chunking.fingerprint_mbps", _MBPS, "higher"),
    ("chunking.chunks", _COUNT, "lower"),
    ("chunking.mean_chunk_bytes", _BYTES, "higher"),
    ("engine.shared_pool.handoff_s", _S, "lower"),
    ("engine.shared_pool.chunk_s", _S, "lower"),
    ("engine.shared_pool.wait_s", _S, "lower"),
    ("engine.shared_pool.segments", _COUNT, "lower"),
    ("core.double_cache.lookup_s", _S, "lower"),
    ("core.double_cache.lookups", _COUNT, "lower"),
    ("core.double_cache.hit_ratio", _RATIO, "higher"),
    ("core.chunk_filter.store_s", _S, "lower"),
    ("core.chunk_filter.demote_s", _S, "lower"),
    ("core.chunk_filter.compact_s", _S, "lower"),
    ("core.chunk_filter.cold_bytes", _BYTES, "lower"),
    ("core.chunk_filter.active_containers", _COUNT, "lower"),
    ("core.recipe_chain.write_s", _S, "lower"),
    ("core.recipe_chain.update_previous_s", _S, "lower"),
    ("core.recipe_chain.flatten_s", _S, "lower"),
    ("core.recipe_chain.flattened_entries", _COUNT, "lower"),
    ("core.deletion.delete_s", _S, "lower"),
    ("core.deletion.containers_deleted", _COUNT, "higher"),
    ("core.checkpoint.save_s", _S, "lower"),
    ("storage.container_store.write_s", _S, "lower"),
    ("storage.container_store.write_bytes", _BYTES, "lower"),
    ("storage.container_store.writes", _COUNT, "lower"),
    ("storage.container_store.read_s", _S, "lower"),
    ("storage.container_store.read_bytes", _BYTES, "lower"),
    ("storage.container_store.reads", _COUNT, "lower"),
    ("storage.container_store.peek_s", _S, "lower"),
    ("storage.container_store.peeks", _COUNT, "lower"),
    ("storage.write_amplification", _RATIO, "lower"),
    ("storage.recipe.write_s", _S, "lower"),
    ("storage.recipe.bytes", _BYTES, "lower"),
    ("storage.manifest.write_s", _S, "lower"),
    ("storage.backend.puts", _COUNT, "lower"),
    ("storage.backend.renames", _COUNT, "lower"),
    ("engine.restore.stream_s", _S, "lower"),
    ("engine.restore.container_read_s", _S, "lower"),
    ("engine.restore.assemble_s", _S, "lower"),
    ("restore.containers_per_restore", _COUNT, "lower"),
    ("repository.backup_self_s", _S, "lower"),
    ("repository.restore_self_s", _S, "lower"),
    ("repository.delete_self_s", _S, "lower"),
    ("repository.verify_self_s", _S, "lower"),
    ("repository.unattributed_share", _RATIO, "lower"),
    ("client.backup_s", _S, "lower"),
    ("client.restore_s", _S, "lower"),
    ("client.credit_stall_s", _S, "lower"),
    ("client.connect_s", _S, "lower"),
    ("server.ingest_bytes", _BYTES, "lower"),
    ("server.restore_bytes", _BYTES, "lower"),
    ("server.requests", _COUNT, "lower"),
    ("server.errors", _COUNT, "lower"),
    ("cluster.requests_routed", _COUNT, "lower"),
    ("cluster.write_retries", _COUNT, "lower"),
    ("cluster.client_failovers", _COUNT, "lower"),
    ("replication.sync_s", _S, "lower"),
    ("replication.bytes_shipped", _BYTES, "lower"),
    ("replication.containers_shipped", _COUNT, "lower"),
    ("replication.containers_skipped", _COUNT, "higher"),
    ("replication.ship_ratio", _RATIO, "lower"),
    ("trace.overhead_ratio", _RATIO, "lower"),
    ("trace.roots_over_wall", _RATIO, "higher"),
) + tuple(
    entry
    for rung in LADDER_RUNGS
    for entry in (
        (f"ladder.{rung}.backup_mbps", _MBPS, "higher"),
        (f"ladder.{rung}.restore_mbps", _MBPS, "higher"),
        (f"ladder.{rung}.cost_s_per_gib", "s/GiB", "lower"),
    )
)

#: Span name -> the metric its summed self time fills.
_SPAN_SECONDS = {
    "chunking.split": "chunking.split_s",
    "chunking.fingerprint": "chunking.fingerprint_s",
    "core.double_cache.lookup": "core.double_cache.lookup_s",
    "core.chunk_filter.store": "core.chunk_filter.store_s",
    "core.chunk_filter.demote": "core.chunk_filter.demote_s",
    "core.chunk_filter.compact": "core.chunk_filter.compact_s",
    "core.recipe_chain.write": "core.recipe_chain.write_s",
    "core.recipe_chain.update_previous": "core.recipe_chain.update_previous_s",
    "core.recipe_chain.flatten": "core.recipe_chain.flatten_s",
    "core.deletion.delete": "core.deletion.delete_s",
    "core.checkpoint.save": "core.checkpoint.save_s",
    "storage.container_store.write": "storage.container_store.write_s",
    "storage.container_store.read": "storage.container_store.read_s",
    "storage.container_store.peek": "storage.container_store.peek_s",
    "storage.recipe.write": "storage.recipe.write_s",
    "storage.manifest.write": "storage.manifest.write_s",
    "engine.restore.stream": "engine.restore.assemble_s",
}

#: Root span name -> the ``repository.*_self_s`` metric of its self time.
_ROOT_SELF = {
    "repository.backup": "repository.backup_self_s",
    "repository.restore_newest": "repository.restore_self_s",
    "repository.restore_oldest": "repository.restore_self_s",
    "repository.restore_file": "repository.restore_self_s",
    "repository.delete": "repository.delete_self_s",
    "repository.verify": "repository.verify_self_s",
}

#: Daemon registry value (summed over nodes, diffed) -> metric.
_SERVER = {
    "ingest.handoff_seconds.sum": "engine.shared_pool.handoff_s",
    "ingest.chunk_seconds.sum": "engine.shared_pool.chunk_s",
    "repo.chunking_seconds.sum": "engine.shared_pool.wait_s",
    "ingest.segments_total": "engine.shared_pool.segments",
    "store.container_write_seconds.sum": "storage.container_store.write_s",
    "store.container_write_bytes": "storage.container_store.write_bytes",
    "store.container_write_seconds.count": "storage.container_store.writes",
    "store.container_read_seconds.sum": "storage.container_store.read_s",
    "store.container_read_bytes": "storage.container_store.read_bytes",
    "store.container_read_seconds.count": "storage.container_store.reads",
    "repo.restore_seconds.sum": "engine.restore.stream_s",
    "restore.container_read_seconds.sum": "engine.restore.container_read_s",
    "restore.assemble_seconds.sum": "engine.restore.assemble_s",
    "server.ingest_bytes": "server.ingest_bytes",
    "server.restore_bytes": "server.restore_bytes",
    "server.requests_total": "server.requests",
    "server.errors_total": "server.errors",
    "cluster.requests_routed": "cluster.requests_routed",
    "replication.sync_seconds.sum": "replication.sync_s",
    "replication.bytes_shipped": "replication.bytes_shipped",
    "replication.containers_shipped": "replication.containers_shipped",
    "replication.containers_skipped": "replication.containers_skipped",
}

#: Client registry value (diffed) -> metric.
_CLIENT = {
    "client.backup_seconds.sum": "client.backup_s",
    "client.restore_seconds.sum": "client.restore_s",
    "client.credit_stall_seconds.sum": "client.credit_stall_s",
    "client.connect_seconds.sum": "client.connect_s",
    "cluster.write_retries": "cluster.write_retries",
    "cluster.client_failovers": "cluster.client_failovers",
}


def flatten_snapshot(snapshot: Mapping) -> Dict[str, float]:
    """A registry snapshot as plain numbers.

    Counters keep their name; a histogram gives ``<name>.sum`` and
    ``<name>.count``.
    """
    flat: Dict[str, float] = dict(snapshot.get("counters", {}))
    for name, hist in snapshot.get("histograms", {}).items():
        flat[name + ".sum"] = hist["sum"]
        flat[name + ".count"] = hist["count"]
    return flat


def layer_metrics(
    recorder: Recorder,
    server: Mapping[str, float],
    client: Mapping[str, float],
    logical_bytes: int,
    restores: int,
    active_containers: int,
) -> Dict[str, float]:
    """Every non-ladder per-layer metric of one traced pass."""
    metrics: Dict[str, float] = {
        name: 0.0 for name, _unit, _better in PER_LAYER if not name.startswith("ladder.")
    }
    counts = recorder.counts

    for source, mapping in ((server, _SERVER), (client, _CLIENT)):
        for key, name in mapping.items():
            metrics[name] += source.get(key, 0.0)

    # On the cluster the recorder holds client-side roots only; with no layer
    # spans under them, "self time" would claim the whole operation.
    in_process = not server
    root_busy = root_self = 0.0
    for span in recorder.spans if in_process else ():
        if span.parent is None:
            root_busy += span.busy
            root_self += span.self_time
            metrics[_ROOT_SELF[span.name]] += span.self_time
            continue
        metrics[_SPAN_SECONDS[span.name]] += span.self_time
        if span.name == "engine.restore.stream":
            metrics["engine.restore.stream_s"] += span.busy
        elif span.name == "storage.container_store.read":
            metrics["storage.container_store.reads"] += span.calls
            if span.parent.name == "engine.restore.stream":
                metrics["engine.restore.container_read_s"] += span.busy
                metrics["restore.containers_per_restore"] += span.calls
        elif span.name == "storage.container_store.write":
            metrics["storage.container_store.writes"] += span.calls
        elif span.name == "storage.container_store.peek":
            metrics["storage.container_store.peeks"] += span.calls
    metrics["repository.unattributed_share"] = root_self / root_busy if root_busy else 0.0

    metrics["chunking.chunks"] = counts["chunks"]
    metrics["chunking.split_mbps"] = _rate(counts["split_bytes"], metrics["chunking.split_s"])
    metrics["chunking.fingerprint_mbps"] = _rate(
        counts["chunk_bytes"], metrics["chunking.fingerprint_s"]
    )
    if counts["chunks"]:
        metrics["chunking.mean_chunk_bytes"] = counts["chunk_bytes"] / counts["chunks"]
    metrics["core.double_cache.lookups"] = counts["lookups"]
    if counts["lookups"]:
        metrics["core.double_cache.hit_ratio"] = counts["lookup_hits"] / counts["lookups"]
    metrics["core.chunk_filter.cold_bytes"] = counts["cold_bytes"]
    metrics["core.chunk_filter.active_containers"] = active_containers
    metrics["core.recipe_chain.flattened_entries"] = counts["flattened_entries"]
    metrics["core.deletion.containers_deleted"] = counts["containers_deleted"]
    metrics["storage.container_store.write_bytes"] += counts["container_write_bytes"]
    metrics["storage.container_store.read_bytes"] += counts["container_read_bytes"]
    metrics["storage.recipe.bytes"] = counts["recipe_bytes"]
    metrics["storage.backend.puts"] = counts["backend_puts"]
    metrics["storage.backend.renames"] = counts["backend_renames"]

    # The daemons count container reads made for restores; the spans counted
    # them above.  Either way: reads per restore operation.
    metrics["restore.containers_per_restore"] += server.get(
        "restore.container_read_seconds.count", 0.0
    )
    if restores:
        metrics["restore.containers_per_restore"] /= restores
    if logical_bytes:
        metrics["storage.write_amplification"] = (
            metrics["storage.container_store.write_bytes"] / logical_bytes
        )
        metrics["replication.ship_ratio"] = (
            metrics["replication.bytes_shipped"] / logical_bytes
        )
    return metrics


def _rate(nbytes: float, seconds: float) -> float:
    return nbytes / MiB / seconds if seconds else 0.0
