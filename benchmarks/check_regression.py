"""Benchmark regression gate: compare fresh BENCH_*.json against baselines.

CI runs the restore/server throughput benchmarks with
``BENCH_RESULTS_DIR`` set, then runs this script::

    python benchmarks/check_regression.py --results /tmp/smoke

Each fresh ``BENCH_<name>.json`` is compared against the committed
``benchmarks/baselines/BENCH_<name>.json``.  Only the **dimensionless**
metrics are gated (parallel-over-serial speedups): raw MB/s varies with
the runner's hardware, but a speedup is a ratio of two timings taken on
the same machine in the same run, so a >15% drop means the pipelining
itself regressed, not the runner.  Exit status 1 on any regression.

A speedup of N workers over one is a same-machine ratio only between
machines with the same number of cores: when a fresh result and its
baseline record different ``cpu_count``/``cpus``, its ratio metrics are
reported as *unmeasured* — neither pass nor fail — the rule
``benchmarks/waterfall/compare.py`` applies to whole runs.

Run with ``--update`` locally to refresh the committed baselines from a
results directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, Iterator, Optional, Tuple

#: Maximum tolerated relative drop in any gated metric (satellite: >15%
#: regression in restore throughput fails CI).
MAX_REGRESSION = 0.15

#: Gated metrics per benchmark document: dot-paths into the JSON.
#: All are speedup ratios — dimensionless, hardware-independent.
GATED_METRICS = {
    "restore_throughput_local": ["speedup_p50"],
    "restore_throughput_daemon": ["speedup_p50"],
    "restore_throughput_s3": ["speedup_p50"],
    # O(delta) replication contract: incremental syncs must stay small
    # relative to the seed sync taken in the same run.
    "replication": ["seed_over_incremental_shipped"],
    # cluster_failover's failover_write_seconds is deliberately NOT in
    # this table: it is an absolute, hardware-dependent wall-clock where
    # lower is better — the >15% drop rule would invert.  It is gated by
    # CEILING_METRICS below instead.
}

#: Absolute upper bounds, checked against the fresh result alone (no
#: baseline ratio).  For lower-is-better wall-clocks the speedup-drop
#: rule inverts, so they get a generous hard ceiling; correctness counts
#: (invariant violations) get a ceiling of zero — any violation fails.
CEILING_METRICS = {
    "cluster_failover": {"failover_write_seconds": 10.0},
    "chaos": {"invariant_violations": 0.0, "ops_failed_untyped": 0.0},
}

BASELINE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "baselines")


def _lookup(doc: Dict, dotted: str) -> float:
    node = doc
    for key in dotted.split("."):
        node = node[key]
    return float(node)


def recorded_cpus(doc: Dict) -> Optional[int]:
    """The core count a benchmark document was measured on, if it says."""
    for key in ("cpu_count", "cpus"):
        if doc.get(key) is not None:
            return int(doc[key])
    return None


def iter_pairs(results_dir: str) -> Iterator[Tuple[str, Dict, Dict]]:
    """(name, fresh_doc, baseline_doc) for every gated fresh result."""
    for fname in sorted(os.listdir(results_dir)):
        if not (fname.startswith("BENCH_") and fname.endswith(".json")):
            continue
        name = fname[len("BENCH_") : -len(".json")]
        if name not in GATED_METRICS:
            continue
        baseline_path = os.path.join(BASELINE_DIR, fname)
        if not os.path.exists(baseline_path):
            print(f"note: no baseline for {name}; skipping (commit one "
                  f"with --update)")
            continue
        with open(os.path.join(results_dir, fname), encoding="utf-8") as handle:
            fresh = json.load(handle)
        with open(baseline_path, encoding="utf-8") as handle:
            baseline = json.load(handle)
        yield name, fresh, baseline


def check_ceilings(results_dir: str) -> Tuple[int, list]:
    """Gate fresh results against CEILING_METRICS; returns (checked, failures)."""
    failures = []
    checked = 0
    for fname in sorted(os.listdir(results_dir)):
        if not (fname.startswith("BENCH_") and fname.endswith(".json")):
            continue
        name = fname[len("BENCH_") : -len(".json")]
        ceilings = CEILING_METRICS.get(name)
        if not ceilings:
            continue
        with open(os.path.join(results_dir, fname), encoding="utf-8") as handle:
            fresh = json.load(handle)
        for metric, ceiling in sorted(ceilings.items()):
            try:
                value = _lookup(fresh, metric)
            except (KeyError, TypeError):
                failures.append(f"{name}: fresh result lacks metric {metric}")
                continue
            checked += 1
            status = "OK"
            if value > ceiling:
                status = "OVER CEILING"
                failures.append(
                    f"{name}.{metric}: {value:.3f} exceeds the hard "
                    f"ceiling {ceiling:.3f}"
                )
            print(f"{status:>12}  {name}.{metric}: {value:.3f} "
                  f"(ceiling {ceiling:.3f})")
    return checked, failures


def check(results_dir: str) -> int:
    failures = []
    checked = 0
    unmeasured = 0
    for name, fresh, baseline in iter_pairs(results_dir):
        cpus, base_cpus = recorded_cpus(fresh), recorded_cpus(baseline)
        if cpus is not None and base_cpus is not None and cpus != base_cpus:
            for metric in GATED_METRICS[name]:
                unmeasured += 1
                print(f"UNMEASURED  {name}.{metric}: measured on {cpus} CPUs, "
                      f"baseline on {base_cpus}")
            continue
        for metric in GATED_METRICS[name]:
            try:
                base_value = _lookup(baseline, metric)
            except (KeyError, TypeError):
                print(f"note: baseline {name} lacks {metric}; skipping")
                continue
            try:
                new_value = _lookup(fresh, metric)
            except (KeyError, TypeError):
                failures.append(f"{name}: fresh result lacks metric {metric}")
                continue
            checked += 1
            drop = (base_value - new_value) / base_value if base_value else 0.0
            status = "OK"
            if drop > MAX_REGRESSION:
                status = "REGRESSION"
                failures.append(
                    f"{name}.{metric}: {new_value:.3f} vs baseline "
                    f"{base_value:.3f} ({drop:.0%} drop > {MAX_REGRESSION:.0%})"
                )
            print(
                f"{status:>10}  {name}.{metric}: "
                f"{new_value:.3f} (baseline {base_value:.3f}, "
                f"{'-' if drop > 0 else '+'}{abs(drop):.1%})"
            )
    ceiling_checked, ceiling_failures = check_ceilings(results_dir)
    checked += ceiling_checked
    failures.extend(ceiling_failures)
    if not checked and not unmeasured:
        print("error: no gated benchmark results found to compare", file=sys.stderr)
        return 1
    if failures:
        print(f"\n{len(failures)} benchmark regression(s):", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"\nall {checked} gated metrics pass "
          f"(ratios within {MAX_REGRESSION:.0%} of baseline, ceilings held)"
          + (f"; {unmeasured} unmeasured (CPU counts differ)" if unmeasured else ""))
    return 0


def update(results_dir: str) -> int:
    os.makedirs(BASELINE_DIR, exist_ok=True)
    copied = 0
    for fname in sorted(os.listdir(results_dir)):
        if not (fname.startswith("BENCH_") and fname.endswith(".json")):
            continue
        if fname[len("BENCH_") : -len(".json")] not in GATED_METRICS:
            continue
        with open(os.path.join(results_dir, fname), encoding="utf-8") as handle:
            doc = json.load(handle)
        with open(os.path.join(BASELINE_DIR, fname), "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"baseline updated: {fname}")
        copied += 1
    if not copied:
        print("error: no gated BENCH_*.json files found", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--results", default=".",
                        help="directory holding fresh BENCH_*.json files")
    parser.add_argument("--update", action="store_true",
                        help="refresh committed baselines from --results")
    args = parser.parse_args(argv)
    if args.update:
        return update(args.results)
    return check(args.results)


if __name__ == "__main__":
    raise SystemExit(main())
