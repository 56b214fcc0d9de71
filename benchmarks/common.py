"""Shared configuration and helpers for the benchmark harness.

The schemes' §5.1 configuration lives in :mod:`repro.experiments`; this
module only fixes the benchmarks' scale.  Scaling notes (see DESIGN.md §3):
the paper's datasets are 64 GB-1.2 TB with 4 MiB containers; here versions
are ~16-40 MB, so containers scale to 512 KiB to keep the
containers-per-version ratio realistic.  Speed factors therefore top out at
0.5 MB per container read instead of the paper's 4.0 — compare *ratios
between schemes*, not absolute values.
"""

from __future__ import annotations

import json
import os
from functools import partial
from typing import Dict, Iterable, List

from repro.experiments import run_scheme as _run_scheme
from repro.units import KiB
from repro.workloads import preset_names

#: Container size used by every scheme in every benchmark (fairness, §5.3).
CONTAINER = 512 * KiB

#: Benchmark workload scale (per preset defaults come from the preset).
CHUNKS_PER_VERSION = 2048

#: ``run_scheme(name, preset, versions=None)`` at the benchmark scale.
run_scheme = partial(_run_scheme, chunks=CHUNKS_PER_VERSION, container_size=CONTAINER)

#: Lines emitted by benchmarks; the conftest dumps them in the terminal
#: summary so they survive pytest's output capture.
EMITTED: List[str] = []


def emit(text: str = "") -> None:
    """Record a result line for the end-of-run report (and try stdout)."""
    EMITTED.append(text)
    print(text, flush=True)


def write_bench_json(name: str, doc: Dict) -> str:
    """Persist one benchmark's results as machine-readable JSON.

    Writes ``BENCH_<name>.json`` into ``$BENCH_RESULTS_DIR`` (default:
    current directory) so CI can upload the numbers as artifacts and
    trend them across runs instead of scraping terminal tables.
    Returns the path written.
    """
    out_dir = os.environ.get("BENCH_RESULTS_DIR", ".")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"BENCH_{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    emit(f"[bench-json] {os.path.abspath(path)}")
    return path


def table(headers: List[str], rows: Iterable[List[str]], title: str = "") -> None:
    """Emit an aligned text table."""
    rows = [list(map(str, r)) for r in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
        for i, h in enumerate(headers)
    ]
    if title:
        emit()
        emit(title)
    line = "  ".join(h.rjust(w) for h, w in zip(headers, widths))
    emit(line)
    emit("-" * len(line))
    for row in rows:
        emit("  ".join(c.rjust(w) for c, w in zip(row, widths)))


def all_presets() -> List[str]:
    return preset_names()
