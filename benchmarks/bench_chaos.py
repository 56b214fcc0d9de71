"""Chaos benchmark: the repository model's long profile under faults.

Runs the fixed tour and then the long Hypothesis profile of
``tests/repository_machine.py`` on every surface of the ``Repository``
contract (``file://``, ``sqlite://``, fake S3, a mixed tier, a daemon
tenant, a routed tenant on three nodes), every fault rule armed, and reports
operations per second *while faults fire*.  The correctness numbers ride
along: a surface whose run the model falsifies is an invariant violation,
and so is an untyped error; ``check_regression.py`` holds
``BENCH_chaos.json`` to zero of each.

Run from the repository root (``tests`` must be importable)::

    PYTHONPATH=src python -m pytest benchmarks/bench_chaos.py -q
"""

from __future__ import annotations

import time

from common import emit, write_bench_json

from repro.chaos.faults import FaultController
from repro.observability import MetricsRegistry
from tests.conftest import SURFACES, Deployment
from tests.repository_machine import FAULT_KINDS, LONG, run_machine, run_tour


def _counter(metrics, name):
    return metrics.snapshot()["counters"].get(name, 0)


def test_chaos_throughput(benchmark, tmp_path):
    """ops/s with faults firing, surface by surface."""
    metrics = MetricsRegistry()
    surfaces = {}

    def run_all():
        with Deployment(tmp_path) as deployment, FaultController(metrics) as controller:
            for kind in SURFACES:
                ops, started = _counter(metrics, "chaos.ops_total"), time.perf_counter()
                error = None
                try:
                    run_tour(deployment, kind, controller)
                    run_machine(deployment, kind, controller, LONG)
                except Exception as exc:  # the model falsified: reported, then gated
                    error = f"{type(exc).__name__}: {exc}"[:2000]
                seconds = time.perf_counter() - started
                ops = _counter(metrics, "chaos.ops_total") - ops
                surfaces[kind] = {
                    "ops": ops,
                    "seconds": round(seconds, 3),
                    "ops_per_second": round(ops / seconds, 3) if seconds else 0.0,
                    "falsified": error,
                }

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    faults = {kind: _counter(metrics, f"chaos.faults_injected.{kind}") for kind in (*FAULT_KINDS, "crash")}
    doc = {
        "profile": {"max_examples": LONG.max_examples, "steps": LONG.stateful_step_count},
        "surfaces": surfaces,
        "invariant_violations": sum(1 for row in surfaces.values() if row["falsified"]),
        "ops_failed_untyped": _counter(metrics, "chaos.ops_failed_untyped"),
        "ops_failed_typed": _counter(metrics, "chaos.ops_failed_typed"),
        "invariants_checked": _counter(metrics, "chaos.invariants_checked"),
        "faults_injected": _counter(metrics, "chaos.faults_injected"),
        "faults_by_kind": faults,
    }
    for kind, row in surfaces.items():
        emit(
            f"chaos {kind}: {row['ops']} ops in {row['seconds']:.1f}s "
            f"({row['ops_per_second']:.1f} ops/s)"
            + (f", FALSIFIED: {row['falsified'][:200]}" if row["falsified"] else "")
        )
    emit(f"chaos faults fired: {faults}")
    write_bench_json("chaos", doc)

    # The chaos contract: every fault fired, and nothing it did produced a
    # torn version, a torn mirror, a changed object or an untyped error.
    assert [kind for kind, count in faults.items() if not count] == []
    assert doc["faults_injected"] >= len(faults)
    assert doc["invariant_violations"] == 0, surfaces
    assert doc["ops_failed_untyped"] == 0
