"""Subprocess chaos client: real process isolation for the load path.

``python -m repro.chaos.worker`` reads one JSON job from stdin —
connection info, its slice of the tenant population, and its ops in
schedule order — executes them against the served deployment through the
same client stack any external tool would use (``RemoteRepository`` /
``ClusterClient``), and writes results plus final tenant models to
stdout.

Workers only run the pure client ops (backup/restore/verify/delete):
fault injection needs the runner process's in-memory controller, and
replication needs filesystem access to the deployment roots — both stay
with thread-mode clients.  What a worker buys is the realism of separate
interpreters: its traffic contends on real sockets, not just the GIL.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Dict, List

from ..errors import ReproError
from .driver import TenantModel, execute_op
from .scenario import ScheduledOp, TenantSpec


def _open_client(connect: Dict):
    if connect["kind"] == "cluster":
        from ..cluster.client import ClusterClient

        client = ClusterClient(
            connect["seeds"],
            timeout=15.0,
            retries=2,
            backoff=0.1,
            retry_budget_seconds=20.0,
        )
        return client, client.repo
    from ..client.remote import RemoteRepository

    repos: Dict[str, RemoteRepository] = {}

    def repo(tenant: str) -> RemoteRepository:
        if tenant not in repos:
            repos[tenant] = RemoteRepository(
                connect["address"],
                tenant,
                timeout=15.0,
                retries=2,
                backoff=0.1,
                retry_budget_seconds=20.0,
            )
        return repos[tenant]

    class _Closer:
        def close(self) -> None:
            for r in repos.values():
                try:
                    r.close()
                except ReproError:
                    pass

    return _Closer(), repo


def main() -> int:
    """Read one JSON job from stdin, run its ops, print results as JSON."""
    job = json.load(sys.stdin)
    models: Dict[str, TenantModel] = {}
    for t in job["tenants"]:
        spec = TenantSpec(
            name=t["name"],
            tenant_class=t["tenant_class"],
            files=t["files"],
            file_kb=t["file_kb"],
            churn=t["churn"],
        )
        models[spec.name] = TenantModel(
            spec, os.path.join(job["trees_root"], spec.name), job["seed"]
        )
    client, repo_of = _open_client(job["connect"])
    results: List[Dict] = []
    try:
        for op in job["ops"]:
            model = models[op["tenant"]]
            started = time.perf_counter()
            status, error = "ok", None
            try:
                status = execute_op(ScheduledOp(**op), model, repo_of(op["tenant"]))
            except ReproError as exc:
                status, error = "failed_typed", f"{type(exc).__name__}: {exc}"
            except Exception as exc:
                status, error = "failed_untyped", f"{type(exc).__name__}: {exc}"
            row = {
                "index": op["index"],
                "phase": op["phase"],
                "tenant": op["tenant"],
                "kind": op["kind"],
                "status": status,
                "seconds": round(time.perf_counter() - started, 6),
            }
            if error:
                row["error"] = error
            results.append(row)
    finally:
        client.close()
    json.dump(
        {
            "results": results,
            "models": {
                name: {"versions": model.versions, "deleted": model.deleted}
                for name, model in models.items()
            },
        },
        sys.stdout,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
