"""Container-population analytics: utilisation, liveness, age.

Answers the physical-layout questions behind Figures 2/6: how full are the
containers, how much of each is still referenced by retained recipes (dead
space a traditional system accumulates until GC), and how containers age —
for HiDeStore, how the active pool compares with the archival population.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Union

from ..core.hidestore import HiDeStore
from ..pipeline.system import BackupSystem


@dataclass
class ContainerPopulation:
    """Summary of one container population (archival, active, or combined)."""

    count: int = 0
    total_capacity: int = 0
    live_bytes: int = 0  # bytes referenced by at least one retained recipe
    held_bytes: int = 0  # bytes physically present
    utilizations: List[float] = field(default_factory=list)

    @property
    def mean_utilization(self) -> float:
        if not self.utilizations:
            return 0.0
        return sum(self.utilizations) / len(self.utilizations)

    @property
    def dead_bytes(self) -> int:
        """Physically held but unreferenced (traditional GC's target)."""
        return max(0, self.held_bytes - self.live_bytes)

    @property
    def dead_fraction(self) -> float:
        if self.held_bytes == 0:
            return 0.0
        return self.dead_bytes / self.held_bytes


def _referenced_fingerprints(system: Union[BackupSystem, HiDeStore]) -> Set[bytes]:
    fingerprints: Set[bytes] = set()
    for version_id in system.recipes.version_ids():
        for entry in system.recipes.peek(version_id).entries:
            fingerprints.add(entry.fingerprint)
    return fingerprints


def _population(containers, live: Set[bytes]) -> ContainerPopulation:
    population = ContainerPopulation()
    for container in containers:
        population.count += 1
        population.total_capacity += container.capacity
        population.held_bytes += container.used
        population.utilizations.append(container.utilization)
        for fingerprint, (_offset, size) in container.index.items():
            if fingerprint in live:
                population.live_bytes += size
    return population


def archival_population(system: Union[BackupSystem, HiDeStore]) -> ContainerPopulation:
    """Analytics over the sealed (archival) containers."""
    live = _referenced_fingerprints(system)
    return _population(system.containers.iter_containers(), live)


def active_population(system: HiDeStore) -> ContainerPopulation:
    """Analytics over HiDeStore's active pool."""
    live = _referenced_fingerprints(system)
    return _population(system.pool.iter_containers(), live)


def utilization_histogram(
    population: ContainerPopulation, buckets: int = 10
) -> Dict[str, int]:
    """Bucketised utilisation counts, e.g. ``{"0.9-1.0": 12, ...}``."""
    if buckets < 1:
        raise ValueError("buckets must be >= 1")
    histogram: Dict[str, int] = {}
    for b in range(buckets):
        low = b / buckets
        high = (b + 1) / buckets
        histogram[f"{low:.1f}-{high:.1f}"] = 0
    for utilization in population.utilizations:
        index = min(buckets - 1, int(utilization * buckets))
        low = index / buckets
        high = (index + 1) / buckets
        histogram[f"{low:.1f}-{high:.1f}"] += 1
    return histogram
