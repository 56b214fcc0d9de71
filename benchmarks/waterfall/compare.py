#!/usr/bin/env python3
"""Compare two waterfall result sets against the bounds in BENCHMARK.json.

    python3 benchmarks/waterfall/compare.py A B

``A`` and ``B`` are ``results.json`` files (or the ``--out`` directories
holding them) written by full runs of ``run.py``; ``A`` is the base.  One row
per (workload, end-to-end metric): both medians, the ratio ``B/A`` with its
base, the widest min-max spread of either side, and a verdict:

* ``ok``         B is no worse than A by more than the metric's bound;
* ``worse``      it is;
* ``unresolved`` the spread between passes of one side exceeds the bound, so
  the difference cannot be told from noise — never reported as ``ok``;
* ``unmeasured`` the two sets were recorded on different CPU counts, where a
  ratio of timings compares machines and not code.

Quick results (``run.py --quick``) are refused.  The exit status is 1 when
any row is ``worse``, 2 when the inputs cannot be compared at all.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")


def load_results(path: str) -> Dict:
    if os.path.isdir(path):
        path = os.path.join(path, "results.json")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def load_bounds(path: str = BENCHMARK_JSON) -> Dict[str, Dict]:
    with open(path, encoding="utf-8") as handle:
        declared = json.load(handle)
    return {metric["name"]: metric for metric in declared["end_to_end"]}


def verdict(ratio: float, spread: float, bound: float, better: str) -> str:
    """``ok`` / ``worse`` / ``unresolved`` for one metric on one workload."""
    if spread > bound:
        return "unresolved"
    worsening = ratio - 1.0 if better == "lower" else 1.0 - ratio
    return "worse" if worsening > bound else "ok"


def compare(base: Dict, other: Dict, bounds: Dict[str, Dict]) -> List[Dict]:
    same_machine = base["environment"]["cpus"] == other["environment"]["cpus"]
    rows = []
    for workload, entry in base["workloads"].items():
        theirs = other["workloads"].get(workload)
        if theirs is None:
            continue
        for name, declared in bounds.items():
            a = entry["end_to_end"].get(name)
            b = theirs["end_to_end"].get(name)
            if a is None or b is None:
                continue
            spread = max((s["max"] - s["min"]) / s["median"] for s in (a, b))
            ratio = b["median"] / a["median"]
            rows.append({
                "workload": workload,
                "metric": name,
                "unit": a["unit"],
                "base": a["median"],
                "other": b["median"],
                "ratio": ratio,
                "spread": spread,
                "bound": declared["bound"],
                "verdict": (
                    verdict(ratio, spread, declared["bound"], declared["better"])
                    if same_machine else "unmeasured"
                ),
            })
    return rows


def render(rows: List[Dict], base: Dict, other: Dict) -> List[str]:
    lines = [
        f"base A: seed {base['seed']}, cpus {base['environment']['cpus']}; "
        f"B: seed {other['seed']}, cpus {other['environment']['cpus']}",
        f"{'workload':20s} {'metric':22s} {'A (base)':>14s} {'B':>14s} "
        f"{'B/A':>8s} {'spread':>8s} {'bound':>6s}  verdict",
    ]
    for row in rows:
        lines.append(
            f"{row['workload']:20s} {row['metric']:22s} {row['base']:14.6f} "
            f"{row['other']:14.6f} {row['ratio']:8.4f} {row['spread']:8.4f} "
            f"{row['bound']:6.2f}  {row['verdict']}  [{row['unit']}]"
        )
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, other = load_results(args[0]), load_results(args[1])
    for label, result in (("A", base), ("B", other)):
        if result.get("quick"):
            print(f"compare: {label} is a --quick result: not comparable", file=sys.stderr)
            return 2
    rows = compare(base, other, load_bounds())
    print("\n".join(render(rows, base, other)))
    if base["environment"]["cpus"] != other["environment"]["cpus"]:
        print("compare: cpu counts differ; every metric is unmeasured")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
