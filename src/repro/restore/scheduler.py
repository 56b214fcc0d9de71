"""Restore schedulers: the planning layer under every restore path.

A :class:`RestoreScheduler` turns a fully resolved recipe (positive
container IDs) into an ordered *plan*: which containers to read, in what
order, which recipe slots each read must serve, and when each slot is
emitted.  The plan separates **policy** from **execution** (how the
container bytes are actually fetched), so FAA — the policy the real
restore path runs — drives both worlds:

* the simulation layer executes a plan serially against the billed reader
  (:func:`execute_plan`) — container-read counts, and therefore speed
  factor, are exactly those of :class:`~repro.restore.faa.FAARestore`;
* the real byte-serving path executes the *same* plan with a prefetching
  reader pool (:mod:`repro.engine.restore`), overlapping container I/O
  with reassembly and socket writes.

The other §4.4 policies (LRU, ALACC, hot-set, Belady) are compared through
:meth:`~repro.pipeline.base.RestoreMixin.restore`, which runs each
algorithm directly against the billed reader.

Plans are streams of :class:`PlanSpan` steps.  Within a span, every listed
read happens before any listed emit; a read's ``slots`` name all entry
indices that must be copied out of that read — including indices emitted by
*later* spans (that is how cache retention is expressed: the chunk is held
in the assembly buffer from read until emission).

Plan invariants (checked by the executors as they go):

* emitted indices are strictly increasing across the whole plan and cover
  ``range(len(entries))`` exactly once;
* every index appears in exactly one read's ``slots``, and that read's
  span is no later than the index's emitting span.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Sequence, Tuple

from ..chunking.stream import Chunk
from ..errors import RestoreError
from ..storage.recipe import RecipeEntry
from ..units import MiB

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .base import ContainerReader


@dataclass(frozen=True)
class ContainerRead:
    """One billed container fetch and the recipe slots it must serve."""

    cid: int
    slots: Tuple[int, ...]


@dataclass(frozen=True)
class PlanSpan:
    """One plan step: perform ``reads``, then emit ``emit`` in order."""

    emit: Tuple[int, ...]
    reads: Tuple[ContainerRead, ...] = ()


class RestoreScheduler(ABC):
    """Turns resolved recipe entries into an ordered restore plan."""

    name: str = "scheduler"

    @abstractmethod
    def plan(self, entries: Sequence[RecipeEntry]) -> Iterator[PlanSpan]:
        """Yield the plan for restoring ``entries`` in recipe order."""


class FAAScheduler(RestoreScheduler):
    """Forward-assembly-area planning (Lillibridge et al., FAST'13).

    The recipe is partitioned into M-byte assembly areas; per area, each
    distinct container is read exactly once, in first-need order, and every
    slot it supplies anywhere in the area is copied out of that one read.
    This is the planning half of :class:`~repro.restore.faa.FAARestore`;
    the read sequence is identical to the classic implementation.
    """

    name = "faa"

    def __init__(self, area_bytes: int = 256 * MiB) -> None:
        if area_bytes <= 0:
            raise RestoreError("area_bytes must be positive")
        self.area_bytes = area_bytes

    def plan(self, entries: Sequence[RecipeEntry]) -> Iterator[PlanSpan]:
        # One pass: per area, each container's slots in first-need order.
        needed: Dict[int, List[int]] = {}
        first = used = 0
        for i, entry in enumerate(entries):
            if used + entry.size > self.area_bytes and needed:
                yield self._span(first, i, needed)
                needed, first, used = {}, i, 0
            slots = needed.get(entry.cid)
            if slots is None:
                needed[entry.cid] = [i]
            else:
                slots.append(i)
            used += entry.size
        if needed:
            yield self._span(first, len(entries), needed)

    @staticmethod
    def _span(first: int, stop: int, needed: Dict[int, List[int]]) -> PlanSpan:
        return PlanSpan(
            emit=tuple(range(first, stop)),
            reads=tuple(ContainerRead(cid, tuple(slots)) for cid, slots in needed.items()),
        )


def execute_plan(
    entries: Sequence[RecipeEntry],
    plan: Iterator[PlanSpan],
    reader: "ContainerReader",
) -> Iterator[Chunk]:
    """Serial reference executor: one billed read per :class:`ContainerRead`.

    This is the simulation/algorithm-layer execution of a plan; the
    pipelined twin with a prefetching reader pool lives in
    :mod:`repro.engine.restore`.
    """
    pending: Dict[int, Chunk] = {}
    for span in plan:
        for read in span.reads:
            container = reader(read.cid)
            for i in read.slots:
                pending[i] = container.get_chunk(entries[i].fingerprint)
        for i in span.emit:
            try:
                yield pending.pop(i)
            except KeyError:
                raise RestoreError(
                    f"restore plan emitted slot {i} before any read served it"
                ) from None
