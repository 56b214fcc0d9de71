"""Restore algorithms: caching and assembly policies over recipes.

Implements the paper's comparison set — container-based caching, chunk-based
caching, FAA (forward assembly) and ALACC — plus a Belady-optimal bound used
by the ablation benchmarks.
"""

from .alacc import ALACCRestore
from .base import ContainerReader, RestoreAlgorithm, RestoreResult
from .chunk_cache import ChunkCacheRestore
from .container_cache import ContainerCacheRestore
from .faa import FAARestore
from .hotset import HotSetRestore
from .optimal import OptimalContainerCacheRestore
from .scheduler import (
    ContainerRead,
    FAAScheduler,
    PlanSpan,
    RestoreScheduler,
    execute_plan,
)

__all__ = [
    "ALACCRestore",
    "ChunkCacheRestore",
    "ContainerCacheRestore",
    "ContainerRead",
    "ContainerReader",
    "FAARestore",
    "FAAScheduler",
    "HotSetRestore",
    "OptimalContainerCacheRestore",
    "PlanSpan",
    "RestoreScheduler",
    "RestoreAlgorithm",
    "RestoreResult",
    "execute_plan",
    "make_restorer",
]

_RESTORERS = {
    "container-lru": ContainerCacheRestore,
    "chunk-lru": ChunkCacheRestore,
    "faa": FAARestore,
    "hotset": HotSetRestore,
    "alacc": ALACCRestore,
    "optimal": OptimalContainerCacheRestore,
}


def make_restorer(name: str, **kwargs) -> RestoreAlgorithm:
    """Construct a restore algorithm by name."""
    try:
        cls = _RESTORERS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown restore algorithm {name!r}; choose from {sorted(_RESTORERS)}"
        ) from None
    return cls(**kwargs)
