#!/usr/bin/env python3
"""The ingest/restore waterfall: one benchmark, four workloads, every layer.

One pass (what ``BENCHMARK.json``'s command runs)::

    python3 benchmarks/waterfall/run.py --workload NAME --seed N --seconds S --trace 0|1

prints every metric by name and, as the last line of stdout, one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.

A full run (no ``--trace``)::

    python3 benchmarks/waterfall/run.py --seed N [--workload NAME] [--traced]
                                        [--out DIR] [--quick]

makes three untraced passes per workload, each in a fresh process and
interleaved across workloads, reports the median over passes with min-max
beside it, and with ``--traced`` adds one traced pass per workload.

The exit status is non-zero when any operation failed, any restore's SHA-256
differed from the digest recorded at generation, or ``verify`` was not ok.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from wf_deploy import FLUSH_POLICY  # noqa: E402
from wf_gen import GenParams  # noqa: E402
from wf_ladder import LADDER_VERSIONS, Ladder  # noqa: E402
from wf_layers import PER_LAYER  # noqa: E402
from wf_pass import (  # noqa: E402
    CALIBRATION_REFERENCE_S, END_TO_END, KINDS, WORKLOAD_BY_NAME, WORKLOADS, Pass, p10,
)

#: Scratch space; inside the checkout and named in ``.gitignore``.
WORK_ROOT = os.path.join(HERE, ".work")

#: Untraced passes per workload in a full run.
PASSES = 3

#: Largest gap allowed between summed root spans and the operations' own
#: wall-clock, and between an operation's root span and its self times.
ROOTS_TOLERANCE = 0.05
RECONCILE_TOLERANCE_S = 1e-6


def run_seconds() -> int:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return int(json.load(handle)["run_seconds"])


def environment() -> Dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


def tail_percentile(samples: List[float]) -> Optional[str]:
    """The highest percentile with at least ten samples beyond it, if any."""
    ordered = sorted(samples)
    for percent in (99, 95, 90):
        beyond = len(ordered) * (100 - percent) // 100
        if beyond >= 10:
            return f"p{percent}={ordered[len(ordered) - beyond - 1]:.4f}"
    return None


# ----------------------------------------------------------------------
# One pass
# ----------------------------------------------------------------------
def single_pass(args: argparse.Namespace, params: GenParams = GenParams()) -> int:
    workload = WORKLOAD_BY_NAME[args.workload]
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=workload.name + "-", dir=WORK_ROOT)
    # Children (daemons, their pool workers) put temporary files here too.
    outer_tmp = os.environ.get("TMPDIR"), tempfile.tempdir
    os.environ["TMPDIR"] = tempfile.tempdir = workdir
    traced = args.trace == 1
    run = Pass(workload, args.seed, params, workdir, quick=args.quick)
    lines: List[str] = []
    checks_ok = True
    spans = None
    try:
        if traced:
            ladder = None
            if not args.quick:
                ladder = Ladder(args.seed, params, os.path.join(workdir, "ladder"))
                ladder.run()
            metrics, recorder = run.run_traced()
            if ladder is not None:
                metrics.update(ladder.metrics())
                lines.extend(ladder.report())
            gap = recorder.reconcile()
            roots = metrics["trace.roots_over_wall"]
            lines.append(
                f"trace: largest root-vs-self-times gap {gap:.2e} s; "
                f"roots/operation wall-clock {roots:.4f}"
            )
            if gap > RECONCILE_TOLERANCE_S or abs(roots - 1.0) > ROOTS_TOLERANCE:
                lines.append("trace: FAILED to reconcile spans with wall-clock")
                checks_ok = False
            spans = recorder.dump()
            declared = [row for row in PER_LAYER
                        if ladder is not None or not row[0].startswith("ladder.")]
        else:
            metrics = run.run_untraced(args.seconds / 4 if args.quick else args.seconds)
            declared = list(END_TO_END)
    finally:
        run.cleanup()
        tempfile.tempdir = outer_tmp[1]
        if outer_tmp[0] is None:
            del os.environ["TMPDIR"]
        else:
            os.environ["TMPDIR"] = outer_tmp[0]

    print(f"workload {workload.name} seed {args.seed} trace {args.trace} "
          f"cpus {os.cpu_count()} clients {run.clients} (closed loop)")
    print(f"flush policy: {FLUSH_POLICY}")
    if args.quick:
        print("quick: not comparable")
    for name, unit, _better in declared:
        timed = f"   (as timed: {run.raw[name]:.6f})" if unit in ("s", "MiB/s") and run.raw else ""
        print(f"{name:42s} {metrics[name]:16.6f} {unit}{timed}")
    if run.raw:
        print(f"machine factor {run.machine_factor:.4f}: calibration p10 "
              f"{p10(run.calibration) * 1000:.3f} ms against the reference "
              f"{CALIBRATION_REFERENCE_S * 1000:.3f} ms")
    for kind in KINDS:
        samples = run.samples[kind]
        if samples:
            tail = tail_percentile(samples)
            print(f"samples {kind:15s} n={len(samples):4d} p10={p10(samples):.4f} "
                  f"p50={statistics.median(samples):.4f} s" + (f" {tail} s" if tail else ""))
    for line in lines:
        print(line)

    correct = run.failed == 0 and checks_ok
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit, _better in declared
        },
    }
    if args.detail:
        detail = dict(result)
        detail.update(
            workload=workload.name, seed=args.seed, trace=args.trace, quick=args.quick,
            steps=run.steps_done, clients=run.clients,
            samples={kind: len(run.samples[kind]) for kind in KINDS},
            sample_seconds=run.samples, as_timed=run.raw, machine_factor=run.machine_factor,
            version_digests=run.version_digests(), failures=run.failures, notes=lines,
        )
        with open(args.detail, "w", encoding="utf-8") as handle:
            json.dump(detail, handle, indent=1)
    if args.trace_out and spans is not None:
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            json.dump({"workload": workload.name, "seed": args.seed, "spans": spans}, handle)
    print(json.dumps(result))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# A full run: passes in fresh processes, medians over passes
# ----------------------------------------------------------------------
def child_pass(name: str, args: argparse.Namespace, trace: int, out: str, tag: str) -> Dict:
    detail = os.path.join(out, f"pass_{name}_{tag}.json")
    argv = [
        sys.executable, os.path.abspath(__file__), "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--detail", detail,
    ]
    if trace:
        argv += ["--trace-out", os.path.join(out, f"trace_{name}.json")]
    if args.quick:
        argv.append("--quick")
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=REPO_ROOT)
    if not os.path.exists(detail):
        sys.stdout.write(done.stdout)
        raise SystemExit(f"pass {tag} of {name} ended with status {done.returncode}")
    with open(detail, encoding="utf-8") as handle:
        return json.load(handle)


def summarise(passes: List[Dict], declared) -> Dict[str, Dict]:
    summary = {}
    for name, unit, better in declared:
        values = [p["metrics"][name]["value"] for p in passes if name in p["metrics"]]
        if values:
            summary[name] = {
                "median": statistics.median(values), "min": min(values),
                "max": max(values), "unit": unit, "better": better, "passes": len(values),
            }
    return summary


def full_run(args: argparse.Namespace) -> int:
    names = [args.workload] if args.workload else [w.name for w in WORKLOADS]
    keep = args.out is not None
    os.makedirs(WORK_ROOT, exist_ok=True)
    out = args.out or tempfile.mkdtemp(prefix="full-", dir=WORK_ROOT)
    os.makedirs(out, exist_ok=True)
    passes: Dict[str, List[Dict]] = {name: [] for name in names}
    traced: Dict[str, Dict] = {}
    try:
        for index in range(1 if args.quick else PASSES):
            for name in names:  # interleaved, so drift hits every workload alike
                passes[name].append(child_pass(name, args, 0, out, f"u{index}"))
        if args.traced:
            for name in names:
                traced[name] = child_pass(name, args, 1, out, "traced")
    finally:
        if not keep:
            shutil.rmtree(out, ignore_errors=True)

    document = {
        "benchmark": "waterfall",
        "seed": args.seed,
        "quick": args.quick,
        "run_seconds": args.seconds,
        "passes": 1 if args.quick else PASSES,
        "environment": environment(),
        "generator": dict(GenParams().as_dict(), source="random.Random(seed).randbytes",
                          ladder_versions=LADDER_VERSIONS),
        "flush_policy": FLUSH_POLICY,
        "calibration_reference_s": CALIBRATION_REFERENCE_S,
        "load": "closed loop; one client per local workload, "
                "min(2, nproc) client threads on cluster-mixed",
        "workloads": {},
    }
    failed = 0
    for name in names:
        runs = passes[name] + ([traced[name]] if name in traced else [])
        attempted = sum(p["attempted"] for p in runs)
        failed_here = sum(p["failed"] for p in runs)
        failed += failed_here + sum(1 for p in runs if not p["correct"])
        document["workloads"][name] = {
            "why": WORKLOAD_BY_NAME[name].why,
            "attempted": attempted,
            "failed": failed_here,
            "op_failure_ratio": failed_here / attempted,
            "samples": passes[name][0]["samples"],
            "machine_factor": [p["machine_factor"] for p in passes[name]],
            "end_to_end": summarise(passes[name], END_TO_END),
            "per_layer": summarise([traced[name]], PER_LAYER) if name in traced else {},
            "notes": traced[name]["notes"] if name in traced else [],
        }
    if keep:
        with open(os.path.join(out, "results.json"), "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)

    env = document["environment"]
    print(f"waterfall seed {args.seed}: cpus {env['cpus']}, python {env['python']}, "
          f"numpy {env['numpy']}, {env['platform']}")
    print(f"flush policy: {FLUSH_POLICY}")
    print(f"load: {document['load']}")
    if args.quick:
        print("quick: not comparable")
    for name in names:
        entry = document["workloads"][name]
        print(f"\n== {name}: {entry['why']}")
        print(f"   operations attempted {entry['attempted']}, failed {entry['failed']}, "
              f"op_failure_ratio {entry['op_failure_ratio']:.6f}; "
              f"samples per pass {entry['samples']}")
        for section in ("end_to_end", "per_layer"):
            for metric, row in entry[section].items():
                spread = (f" [{row['min']:.6f} .. {row['max']:.6f}] over {row['passes']} passes"
                          if row["passes"] > 1 else "")
                print(f"   {metric:42s} {row['median']:16.6f} {row['unit']}{spread}")
        for line in entry["notes"]:
            print("   " + line)
    return 1 if failed else 0


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOAD_BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time of one pass (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="run ONE pass: 0 end-to-end metrics, 1 per-layer metrics")
    parser.add_argument("--traced", action="store_true",
                        help="full run: add one traced pass per workload")
    parser.add_argument("--out", help="full run: keep results.json, passes and traces here")
    parser.add_argument("--quick", action="store_true",
                        help="one pass, a quarter of the steps, no ladder; not comparable")
    parser.add_argument("--detail", help=argparse.SUPPRESS)
    parser.add_argument("--trace-out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = run_seconds()
    if args.trace is not None and args.workload is None:
        parser.error("--trace needs --workload")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    return full_run(args) if args.trace is None else single_pass(args)


if __name__ == "__main__":
    sys.exit(main())
