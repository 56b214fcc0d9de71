"""Dead-space accumulation under retention churn (a §5.5 consequence).

A backup service that expires old versions continuously must reclaim the
space of dead chunks.  The traditional pipeline faces a dial:

* never copy (GC threshold 0): deletions are cheap but dead bytes pile up
  inside mixed containers forever;
* always copy (threshold 1): space stays tight but every deletion rewrites
  containers and recipes.

HiDeStore sits off the dial entirely: cold sets are physically segregated
per version, so expiry reclaims exactly the dead bytes by whole-container
deletion — zero dead space AND zero copying.  This bench runs a sliding
retention window over the kernel workload and reports all three.
"""

import pytest

from common import CONTAINER, emit, run_scheme, table
from repro.analysis import archival_population
from repro.experiments import scheme_config
from repro.pipeline import GCDeletionManager, build_scheme
from repro.workloads import load_preset

VERSIONS = 20
WINDOW = 8


def _traditional(threshold):
    system = build_scheme("ddfs", container_size=CONTAINER, **scheme_config("ddfs"))
    gc = GCDeletionManager(system, utilization_threshold=threshold)
    copied = 0
    for stream in load_preset("kernel", versions=VERSIONS).versions():
        system.backup(stream)
        while len(system.version_ids()) > WINDOW:
            stats = gc.delete_version(system.version_ids()[0])
            copied += stats.bytes_copied
    population = archival_population(system)
    return population, copied


def _hidestore():
    system = build_scheme("hidestore", container_size=CONTAINER)
    for stream in load_preset("kernel", versions=VERSIONS).versions():
        system.backup(stream)
        while (
            len(system.version_ids()) > WINDOW
            and system.version_ids()[0] <= system.demotion_horizon
        ):
            system.delete_oldest()
    population = archival_population(system)
    return population, system


def test_dead_space_after_retention_churn(benchmark):
    results = {}

    def sweep():
        results["gc-never-copy"] = _traditional(0.0)
        results["gc-always-copy"] = _traditional(1.0)
        population, system = _hidestore()
        results["hidestore"] = (population, 0)
        results["_hds_system"] = system
        return len(results)

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = []
    for name in ("gc-never-copy", "gc-always-copy", "hidestore"):
        population, copied = results[name]
        rows.append([
            name,
            population.count,
            f"{population.dead_fraction:.1%}",
            population.dead_bytes,
            copied,
        ])
    table(
        ["strategy", "containers", "dead fraction", "dead bytes", "bytes copied"],
        rows,
        title=f"Dead space after a {WINDOW}-version retention window over {VERSIONS} backups",
    )
    never, always, hds = (results[k][0] for k in ("gc-never-copy", "gc-always-copy", "hidestore"))
    emit("HiDeStore: per-version cold segregation needs neither dead space "
         "nor copy traffic.")
    assert never.dead_bytes > 0  # cheap GC leaks space
    assert results["gc-always-copy"][1] > 0  # tight GC pays copies
    assert hds.dead_bytes == 0
    assert results["hidestore"][1] == 0
