#!/usr/bin/env python3
"""Regenerate the paper's figures as SVG images under ``figures/``.

Runs the same experiments as the benchmark suite — each scheme under its
§5.1 configuration, through :func:`repro.experiments.run_scheme` — at a
smaller scale so the script finishes in seconds, and renders:

* fig3_<dataset>.svg — version-tag chunk counts (the §3 observation);
* fig8_dedup_ratio.svg — deduplication ratios per scheme and dataset;
* fig9_<dataset>.svg — cumulative lookup requests per GB over versions;
* fig10_index_overhead.svg — resident index bytes per MB;
* fig11_<dataset>.svg — restore speed factor per version and scheme.

Usage::

    python examples/make_figures.py [output-dir]
"""

import os
import sys

from repro import load_preset
from repro.analysis import run_observation
from repro.experiments import run_scheme
from repro.plotting import bar_chart, line_chart
from repro.units import KiB

CONTAINER = 512 * KiB
VERSIONS = 16
CHUNKS = 1500
DATASETS = ["kernel", "gcc", "fslhomes", "macos"]

SCHEMES = ["ddfs", "sparse", "silo", "capping", "alacc", "hidestore"]


def run_all(datasets):
    systems = {}
    for dataset in datasets:
        versions = VERSIONS if dataset != "macos" else 12
        for scheme in SCHEMES:
            systems[(dataset, scheme)] = run_scheme(
                scheme, dataset, versions=versions, chunks=CHUNKS,
                container_size=CONTAINER,
            )
        print(f"  backed up {dataset} under {len(SCHEMES)} schemes")
    return systems


def fig3(out):
    for dataset in DATASETS:
        workload = load_preset(dataset, versions=8, chunks_per_version=1500)
        result = run_observation(workload.versions())
        series = {
            f"V{tag}": [(k, result.counts[k - 1].get(tag, 0))
                        for k in range(1, result.versions + 1)]
            for tag in range(1, 5)
        }
        path = os.path.join(out, f"fig3_{dataset}.svg")
        line_chart(series, f"Figure 3 — {dataset}: chunks per version tag",
                   "after version", "chunks", path)
        print(f"  wrote {path}")


def fig8(out, systems):
    groups = {
        scheme: [systems[(d, scheme)].dedup_ratio for d in DATASETS]
        for scheme in SCHEMES
    }
    path = os.path.join(out, "fig8_dedup_ratio.svg")
    bar_chart(DATASETS, groups, "Figure 8 — deduplication ratio",
              "dedup ratio", path)
    print(f"  wrote {path}")


def fig9(out, systems):
    for dataset in ("kernel", "gcc"):
        series = {}
        for scheme in ("ddfs", "sparse", "silo", "hidestore"):
            reports = systems[(dataset, scheme)].report.per_version
            points = []
            for upto in range(2, len(reports) + 1):
                lookups = sum(r.disk_index_lookups for r in reports[:upto])
                logical = sum(r.logical_bytes for r in reports[:upto])
                points.append((upto, lookups / (logical / 2**30)))
            series[scheme] = points
        path = os.path.join(out, f"fig9_{dataset}.svg")
        line_chart(series, f"Figure 9 — lookup overhead ({dataset})",
                   "versions stored", "lookup requests per GB", path)
        print(f"  wrote {path}")


def fig10(out, systems):
    schemes = ["ddfs", "sparse", "silo", "hidestore"]
    groups = {
        scheme: [systems[(d, scheme)].report.index_bytes_per_mb for d in DATASETS]
        for scheme in schemes
    }
    path = os.path.join(out, "fig10_index_overhead.svg")
    bar_chart(DATASETS, groups, "Figure 10 — index table overhead",
              "resident index bytes per MB", path)
    print(f"  wrote {path}")


def fig11(out, systems):
    for dataset in DATASETS:
        series = {}
        for scheme in ("ddfs", "capping", "alacc", "hidestore"):
            system = systems[(dataset, scheme)]
            versions = system.version_ids()
            sample = versions[:: max(1, len(versions) // 8)]
            if versions[-1] not in sample:
                sample.append(versions[-1])
            series[scheme] = [
                (v, system.restore(v).speed_factor) for v in sample
            ]
        path = os.path.join(out, f"fig11_{dataset}.svg")
        line_chart(series, f"Figure 11 — restore speed factor ({dataset})",
                   "version", "speed factor (MB/container read)", path)
        print(f"  wrote {path}")


def main() -> None:
    out = sys.argv[1] if len(sys.argv) > 1 else "figures"
    os.makedirs(out, exist_ok=True)
    print("== running experiments ==")
    systems = run_all(DATASETS)
    print("== rendering figures ==")
    fig3(out)
    fig8(out, systems)
    fig9(out, systems)
    fig10(out, systems)
    fig11(out, systems)
    print(f"\nAll figures written under {out}/ — open them in a browser.")


if __name__ == "__main__":
    main()
