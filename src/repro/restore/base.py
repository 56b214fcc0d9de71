"""Restore-algorithm interface and result accounting.

A restore algorithm turns a recipe (ordered chunk references with *positive*
container IDs) back into the original chunk sequence, reading containers
through a billed ``reader`` callable.  Algorithms differ only in how they
schedule and cache those container reads — which is the entire game, since
the paper's restore metric is *speed factor*: MB restored per container read.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Iterator, List, Sequence

from ..chunking.stream import Chunk
from ..errors import RestoreError
from ..storage.container import Container
from ..storage.recipe import RecipeEntry
from ..units import MiB

#: Signature of the billed container fetch: cid -> Container.
ContainerReader = Callable[[int], Container]


@dataclass
class RestoreResult:
    """Outcome of one restore run."""

    chunks: int = 0
    logical_bytes: int = 0
    container_reads: int = 0

    @property
    def speed_factor(self) -> float:
        """MB restored per container read (the paper's Fig. 11 metric)."""
        if self.container_reads == 0:
            return 0.0
        return (self.logical_bytes / MiB) / self.container_reads


class RestoreAlgorithm(ABC):
    """Base class for restore cache/assembly policies."""

    name: str = "base"

    @abstractmethod
    def restore(
        self, entries: Sequence[RecipeEntry], reader: ContainerReader
    ) -> Iterator[Chunk]:
        """Yield the version's chunks in recipe order.

        Implementations must call ``reader`` exactly once per physical
        container read they model (the reader bills IOStats) and must yield
        ``len(entries)`` chunks whose fingerprints match the entries.
        """

    @staticmethod
    def _check_positive_cids(entries: Sequence[RecipeEntry]) -> None:
        for entry in entries:
            if entry.cid <= 0:
                raise RestoreError(
                    "restore algorithms need fully resolved recipes; "
                    f"found cid={entry.cid} for {entry.fingerprint.hex()[:8]} "
                    "(resolve the recipe chain first)"
                )

    def run(
        self, entries: Sequence[RecipeEntry], reader: ContainerReader
    ) -> List[Chunk]:
        """Materialise the whole restore (convenience for tests/benches)."""
        return list(self.restore(entries, reader))
