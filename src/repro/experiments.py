"""The paper's experiments: the §5.1 scheme configurations and the loop over them.

Figures 8-11 compare HiDeStore against DDFS, Sparse, SiLo, Capping and
ALACC, each under the configuration §5.1 gives it.  That configuration
lives here and only here (:func:`scheme_config`); every paper-figure path
— the benchmark files, ``hidestore simulate`` and
``examples/make_figures.py`` — backs its schemes up through
:func:`run_scheme`, so they cannot drift apart.  :func:`run_matrix` sweeps
schemes × presets and returns every §5 metric as flat rows, ready for CSV,
pandas or plotting.

Example::

    from repro.experiments import run_matrix, write_csv

    rows = run_matrix(
        schemes={"ddfs": {}, "hidestore": {}},
        presets=["kernel", "gcc"],
        versions=16,
        container_size=512 * 1024,
    )
    write_csv(rows, "results.csv")
"""

from __future__ import annotations

import csv
import time
from typing import Dict, Iterable, List, Mapping, Optional

from .pipeline.base import BackupEngine
from .pipeline.schemes import build_scheme
from .units import CONTAINER_SIZE, MiB
from .workloads import history_depth_for, load_preset

#: DDFS locality-cache capacity (containers): well below a dataset's
#: container count, as RAM caches a sliver of a multi-TB store.
DDFS_CACHE = 16

#: Column order of the result rows (stable for CSV consumers).
COLUMNS = [
    "scheme",
    "workload",
    "versions",
    "logical_bytes",
    "stored_bytes",
    "dedup_ratio",
    "lookups_per_gb",
    "index_bytes_per_mb",
    "speed_factor_first",
    "speed_factor_mid",
    "speed_factor_last",
    "containers",
    "backup_seconds",
]


def scheme_config(name: str, container_size: int = CONTAINER_SIZE) -> Dict:
    """The §5.1 factory kwargs of one named scheme.

    Rewriters that cut by container size see ``container_size``.  Schemes
    §5 does not configure (``exact``, ``blc``, …) get ``{}``: their
    factory defaults.
    """
    ddfs_kw = dict(index_kwargs=dict(cache_containers=DDFS_CACHE))
    fbw_rewriter = dict(
        container_bytes=container_size,
        window_bytes=8 * MiB,
        target_rewrite_ratio=0.05,
        density_threshold=0.25,
    )
    configs: Dict[str, Dict] = {
        "ddfs": dict(**ddfs_kw),
        "baseline": dict(**ddfs_kw),
        "capping": dict(rewriter_kwargs=dict(cap=16, segment_bytes=4 * MiB), **ddfs_kw),
        "cbr": dict(rewriter_kwargs=dict(container_bytes=container_size), **ddfs_kw),
        "cfl": dict(rewriter_kwargs=dict(container_bytes=container_size), **ddfs_kw),
        "fbw": dict(rewriter_kwargs=dict(fbw_rewriter), **ddfs_kw),
        "alacc": dict(
            rewriter_kwargs=dict(fbw_rewriter),
            restorer_kwargs=dict(
                total_bytes=32 * MiB,
                lookahead_bytes=16 * MiB,
                min_faa_bytes=4 * MiB,
                step_bytes=2 * MiB,
            ),
            **ddfs_kw,
        ),
    }
    return configs.get(name, {})


def run_scheme(
    name: str,
    preset: str,
    versions: Optional[int] = None,
    chunks: Optional[int] = None,
    container_size: int = CONTAINER_SIZE,
    scheme_kwargs: Optional[Mapping] = None,
) -> BackupEngine:
    """Back up a preset workload under a named scheme; returns the system.

    The scheme runs its :func:`scheme_config`; ``scheme_kwargs`` override
    those values key by key.  ``hidestore`` keeps the preset's history
    depth (§4.1) unless ``scheme_kwargs`` name one.  ``versions`` and
    ``chunks`` (per version) default to the preset's.
    """
    name = name.lower()  # as build_scheme reads it
    kwargs = {**scheme_config(name, container_size), **(scheme_kwargs or {})}
    if name == "hidestore":
        kwargs.setdefault("history_depth", history_depth_for(preset))
    system = build_scheme(name, container_size=container_size, **kwargs)
    workload = load_preset(preset, versions=versions, chunks_per_version=chunks)
    for stream in workload.versions():
        system.backup(stream)
    return system


def run_single(
    scheme: str,
    preset: str,
    scheme_kwargs: Optional[Mapping] = None,
    versions: Optional[int] = None,
    chunks_per_version: Optional[int] = None,
    container_size: int = CONTAINER_SIZE,
) -> Dict[str, object]:
    """Run one (scheme, preset) cell through :func:`run_scheme`; returns a flat metric row."""
    started = time.perf_counter()
    system = run_scheme(
        scheme, preset, versions, chunks_per_version, container_size, scheme_kwargs
    )
    backup_seconds = time.perf_counter() - started

    version_ids = system.version_ids()
    points = {
        "first": version_ids[0],
        "mid": version_ids[len(version_ids) // 2],
        "last": version_ids[-1],
    }
    speed = {
        label: system.restore(version).speed_factor
        for label, version in points.items()
    }
    report = system.report
    return {
        "scheme": scheme,
        "workload": preset,
        "versions": report.versions,
        "logical_bytes": report.logical_bytes,
        "stored_bytes": report.stored_bytes,
        "dedup_ratio": report.dedup_ratio,
        "lookups_per_gb": report.lookups_per_gb,
        "index_bytes_per_mb": report.index_bytes_per_mb,
        "speed_factor_first": speed["first"],
        "speed_factor_mid": speed["mid"],
        "speed_factor_last": speed["last"],
        "containers": len(system.containers),
        "backup_seconds": backup_seconds,
    }


def run_matrix(
    schemes: Mapping[str, Mapping],
    presets: Iterable[str],
    versions: Optional[int] = None,
    chunks_per_version: Optional[int] = None,
    container_size: int = CONTAINER_SIZE,
    progress=None,
) -> List[Dict[str, object]]:
    """Run every (scheme, preset) combination, preset by preset.

    Args:
        schemes: scheme name -> kwargs overriding its :func:`scheme_config`.
        presets: preset names.
        progress: optional callable receiving each finished row.
    """
    rows: List[Dict[str, object]] = []
    for preset in presets:
        for scheme, kwargs in schemes.items():
            row = run_single(
                scheme,
                preset,
                scheme_kwargs=kwargs,
                versions=versions,
                chunks_per_version=chunks_per_version,
                container_size=container_size,
            )
            rows.append(row)
            if progress is not None:
                progress(row)
    return rows


def write_csv(rows: Iterable[Mapping[str, object]], path: str) -> int:
    """Write result rows to CSV (stable column order); returns row count."""
    count = 0
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({key: row.get(key, "") for key in COLUMNS})
            count += 1
    return count


def read_csv(path: str) -> List[Dict[str, str]]:
    """Read back a results CSV (values as strings)."""
    with open(path, "r", newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))
