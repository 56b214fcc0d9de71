"""Orchestrate one chaos run: compile → deploy → drive → check → report.

The runner owns lifecycle ordering, which matters:

1. compile the scenario (pure; the schedule digest is fixed here),
2. install the fault controller's backend wrapper *before* the
   deployment starts (daemons build their backends at first tenant
   touch — the wrapper must already be in place),
3. start the deployment, run each phase, check invariants at every
   phase boundary with the clients quiesced,
4. tear everything down (even on failure) and emit one JSON report.

The report is the product: schedule digest + fault sites make the run
reproducible, per-op latency quantiles make it a benchmark, and the
invariant results make it a verdict CI can gate on.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
from typing import Dict, List, Optional

from ..errors import WorkloadError
from ..observability import MetricsRegistry, get_registry
from .deploy import make_deployment
from .driver import Driver, TenantModel
from .faults import FaultController
from .invariants import check_invariants
from .scenario import Schedule, compile_schedule

__all__ = ["ChaosRunner", "run_scenario"]


class ChaosRunner:
    """Run one scenario end to end and return the machine-readable report.

    Owns the full lifecycle: compile the schedule, vet it against the
    deployment's fault support, install the fault controller *before* the
    deployment opens any backend (the wrapper seam only applies at open),
    drive every phase, check invariants after each, and tear everything
    down — including the scratch workdir when the caller did not pin one.
    """

    def __init__(
        self,
        scenario: Dict,
        deploy: str = "local",
        seed: Optional[int] = None,
        workdir: Optional[str] = None,
        metrics: Optional[MetricsRegistry] = None,
        deploy_kwargs: Optional[Dict] = None,
    ) -> None:
        self.scenario = scenario
        self.deploy_kind = deploy
        self.seed = seed
        self.workdir = workdir
        self.metrics = metrics if metrics is not None else get_registry()
        self.deploy_kwargs = dict(deploy_kwargs or {})
        self.schedule: Optional[Schedule] = None

    # ------------------------------------------------------------------
    def run(self) -> Dict:
        started = time.perf_counter()
        self.schedule = compile_schedule(self.scenario, self.seed)
        self._vet()

        own_workdir = self.workdir is None
        workdir = self.workdir or tempfile.mkdtemp(prefix="hidestore-chaos-")
        os.makedirs(workdir, exist_ok=True)
        trees_root = os.path.join(workdir, "trees")
        deployment = make_deployment(
            self.deploy_kind,
            os.path.join(workdir, "deploy"),
            metrics=self.metrics,
            **self.deploy_kwargs,
        )

        controller = FaultController(self.metrics)
        models = {
            spec.name: TenantModel(
                spec, os.path.join(trees_root, spec.name), self.schedule.seed
            )
            for spec in self.schedule.tenants
        }
        driver = Driver(self.schedule, deployment, controller, models, self.metrics)
        invariants: List = []
        try:
            controller.install()  # before start(): daemons must wrap their backends
            deployment.start()
            for phase in self.schedule.phases:
                driver.run_phase(phase)
                invariants.extend(
                    check_invariants(driver, deployment, phase, self.metrics)
                )
        finally:
            try:
                deployment.stop()
            finally:
                controller.uninstall()
                if own_workdir:
                    shutil.rmtree(workdir, ignore_errors=True)

        return self._report(
            driver, controller, invariants, time.perf_counter() - started
        )

    # ------------------------------------------------------------------
    def _vet(self) -> None:
        assert self.schedule is not None
        from .deploy import DEPLOY_KINDS, ClusterDeployment, DaemonDeployment, LocalDeployment

        supported = {
            "local": LocalDeployment.supports_faults,
            "daemon": DaemonDeployment.supports_faults,
            "cluster": ClusterDeployment.supports_faults,
        }.get(self.deploy_kind)
        if supported is None:
            raise WorkloadError(
                f"unknown deployment kind {self.deploy_kind!r} "
                f"(choose from {', '.join(DEPLOY_KINDS)})"
            )
        unsupported = sorted(set(self.schedule.fault_kinds()) - supported)
        if unsupported:
            raise WorkloadError(
                f"deployment {self.deploy_kind!r} cannot realise fault "
                f"kind(s): {', '.join(unsupported)}"
            )

    # ------------------------------------------------------------------
    def _report(
        self,
        driver: Driver,
        controller: FaultController,
        invariants: List,
        duration: float,
    ) -> Dict:
        schedule = self.schedule
        by_status: Dict[str, int] = {}
        by_kind: Dict[str, int] = {}
        for result in driver.results:
            by_status[result.status] = by_status.get(result.status, 0) + 1
            by_kind[result.kind] = by_kind.get(result.kind, 0) + 1
        failed = [r.as_doc() for r in driver.results if r.status.startswith("failed")]
        violations = sum(1 for inv in invariants if not inv.ok)
        snapshot = self.metrics.snapshot()
        latency = {
            name.rsplit(".", 1)[-1]: doc
            for name, doc in snapshot.get("histograms", {}).items()
            if name.startswith("chaos.op_seconds.")
        }
        chaos_counters = {
            name: value
            for name, value in snapshot.get("counters", {}).items()
            if name.startswith("chaos.")
        }
        ok = violations == 0 and by_status.get("failed_untyped", 0) == 0
        return {
            "scenario": schedule.name,
            "seed": schedule.seed,
            "deploy": self.deploy_kind,
            "clients": schedule.clients,
            "schedule": {
                "digest": schedule.digest(),
                "tenants": len(schedule.tenants),
                "phases": schedule.phases,
                "ops": len(schedule.ops),
            },
            "fault_sites": [f.as_doc() for f in schedule.faults],
            "faults_injected": len(controller.fired),
            "faults_fired": controller.fired[:50],
            "fault_log": driver.fault_log[:50],
            "ops": {
                "attempted": len(driver.results),
                "by_status": by_status,
                "by_kind": by_kind,
                "failed": failed[:50],
            },
            "invariants": [inv.as_doc() for inv in invariants],
            "invariant_failures": violations,
            "ok": ok,
            "latency_seconds": latency,
            "metrics": chaos_counters,
            "duration_seconds": round(duration, 3),
        }


def run_scenario(
    scenario: Dict,
    deploy: str = "local",
    seed: Optional[int] = None,
    report_path: Optional[str] = None,
    **kwargs,
) -> Dict:
    """One-call façade: run a scenario, optionally write the JSON report."""
    report = ChaosRunner(scenario, deploy=deploy, seed=seed, **kwargs).run()
    if report_path:
        with open(report_path, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return report
