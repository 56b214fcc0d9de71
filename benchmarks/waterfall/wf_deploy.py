"""The two deployment shapes the waterfall drives.

``LocalDeployment`` is one ``LocalRepository`` on ``file://``;
``ClusterDeployment`` is N daemon processes (``python -m repro.cli serve``
children of a ``ClusterSupervisor``) behind a ``ClusterClient``.  Daemons run
with their shipped defaults: default ``--ingest-workers``, metrics registry
on, no fsync anywhere (the file backend writes ``*.tmp`` and renames).
"""

from __future__ import annotations

import contextlib
import os
import sys
from typing import Dict, Iterator, List

from repro.cluster import (
    ClusterClient,
    ClusterMap,
    ClusterSupervisor,
    NodeSpec,
    assign_ports,
)
from repro.observability import MetricsRegistry
from repro.repository import LocalRepository

from wf_gen import GenParams, MiB, describe, names_on_distinct_primaries
from wf_layers import flatten_snapshot

FLUSH_POLICY = "none: no fsync, writes are tmp+rename into the page cache"


@contextlib.contextmanager
def stdout_to_stderr() -> Iterator[None]:
    """Point fd 1 at stderr while children are spawned.

    Daemons inherit fd 1 and print a banner on it; the benchmark's last
    stdout line must be its own result.
    """
    sys.stdout.flush()
    saved = os.dup(1)
    os.dup2(2, 1)
    try:
        yield
    finally:
        os.dup2(saved, 1)
        os.close(saved)


class LocalDeployment:
    """One in-process repository on the ``file://`` backend."""

    kind = "local"

    def __init__(self, root: str) -> None:
        self.tenants = ["local"]
        self._repo = LocalRepository("file://" + os.path.join(root, "repo"))

    def repo(self, index: int) -> LocalRepository:
        return self._repo

    def close(self) -> None:
        self._repo.storage.close()


class ClusterDeployment:
    """Daemon processes, a routed client and seed-named tenants."""

    kind = "cluster"

    def __init__(self, root: str, seed: int, nodes: int, replicas: int, tenants: int) -> None:
        specs = [
            NodeSpec(f"n{i + 1}", "127.0.0.1:0", os.path.join(root, f"n{i + 1}"))
            for i in range(nodes)
        ]
        self.map = assign_ports(ClusterMap(specs, replicas=replicas))
        map_path = os.path.join(root, "cluster.json")
        os.makedirs(root, exist_ok=True)
        self.map.save(map_path)
        self.supervisor = ClusterSupervisor(self.map, map_path)
        with stdout_to_stderr():
            self.supervisor.start()
        try:
            #: Client-side registry: ``client.*`` and ``cluster.client_*``.
            self.metrics = MetricsRegistry()
            self.client = ClusterClient(
                [node.address for node in self.map.nodes],
                cluster_map=self.map,
                pool_size=max(2, tenants),
                metrics=self.metrics,
            )
            #: The seed names the tenants; their primaries all differ.
            self.tenants = names_on_distinct_primaries(f"wf{seed}-t", self._primary_of, tenants)
        except BaseException:
            self.supervisor.stop()
            raise

    def _primary_of(self, tenant: str) -> str:
        return self.map.primary(tenant).name

    def repo(self, index: int):
        return self.client.repo(self.tenants[index])

    def warm_up(self, params: GenParams) -> None:
        """One small backup per node, so every ingest pool has live workers."""
        warm = describe(bytes(MiB), params)
        for name in names_on_distinct_primaries("warm-", self._primary_of, len(self.map.nodes)):
            self.client.repo(name).backup_blocks(list(warm.blocks), list(warm.plan), tag="warm")

    def sync_all(self) -> List[Dict]:
        reports = self.client.sync_all()
        for report in reports:
            if report.get("error") or report.get("errors"):
                raise RuntimeError(f"replica sync failed: {report}")
        return reports

    def server_metrics(self) -> Dict[str, float]:
        """Daemon registries, flattened and summed over nodes."""
        total: Dict[str, float] = {}
        for node in self.map.nodes:
            stats = self.client.remote(node.address, "-").server_stats()
            for name, value in flatten_snapshot(stats.get("metrics", {})).items():
                total[name] = total.get(name, 0.0) + value
        return total

    def client_metrics(self) -> Dict[str, float]:
        """This process's client-side registry, flattened."""
        return flatten_snapshot(self.metrics.snapshot())

    def close(self) -> None:
        try:
            self.client.close()
        finally:
            with stdout_to_stderr():
                self.supervisor.stop()
