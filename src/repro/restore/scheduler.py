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

A plan is computed from the recipe's CID and size columns
(:class:`~repro.storage.recipe.RecipeColumns`) and executed against its
fingerprint column, never from per-row objects: FAA's area bounds are a
bisection of the accumulated sizes, and each area's reads one pass over
its CIDs.

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
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import TYPE_CHECKING, Dict, Iterator, List, Sequence, Tuple

from ..chunking.stream import Chunk
from ..errors import RestoreError
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

    emit: Sequence[int]
    reads: Tuple[ContainerRead, ...] = ()


class RestoreScheduler(ABC):
    """Turns a resolved recipe's columns into an ordered restore plan."""

    name: str = "scheduler"

    @abstractmethod
    def plan(self, cids: Sequence[int], sizes: Sequence[int]) -> Iterator[PlanSpan]:
        """Yield the plan for restoring, in recipe order, the rows whose
        container IDs and sizes are ``cids`` and ``sizes``."""


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

    def plan(self, cids: Sequence[int], sizes: Sequence[int]) -> Iterator[PlanSpan]:
        # An area takes rows while their sizes fit, and at least one row.
        ends = list(accumulate(sizes))
        first, count = 0, len(ends)
        while first < count:
            limit = (ends[first - 1] if first else 0) + self.area_bytes
            stop = max(bisect_right(ends, limit, first), first + 1)
            yield self._span(cids, first, stop)
            first = stop

    @staticmethod
    def _span(cids: Sequence[int], first: int, stop: int) -> PlanSpan:
        # Each container's slots in recipe order; the dict keeps first-need order.
        needed: Dict[int, List[int]] = {}
        for i, cid in zip(range(first, stop), cids[first:stop]):
            slots = needed.get(cid)
            if slots is None:
                needed[cid] = [i]
            else:
                slots.append(i)
        return PlanSpan(
            emit=range(first, stop),
            reads=tuple(ContainerRead(cid, tuple(slots)) for cid, slots in needed.items()),
        )


def execute_plan(
    fingerprints: Sequence[bytes],
    plan: Iterator[PlanSpan],
    reader: "ContainerReader",
) -> Iterator[Chunk]:
    """Serial reference executor: one billed read per :class:`ContainerRead`,
    one chunk per slot, looked up by the slot's entry of ``fingerprints``.

    This is the simulation/algorithm-layer execution of a plan; the
    pipelined twin with a prefetching reader pool lives in
    :mod:`repro.engine.restore`.
    """
    pending: Dict[int, Chunk] = {}
    for span in plan:
        for read in span.reads:
            container = reader(read.cid)
            for i in read.slots:
                pending[i] = container.get_chunk(fingerprints[i])
        for i in span.emit:
            try:
                yield pending.pop(i)
            except KeyError:
                raise RestoreError(
                    f"restore plan emitted slot {i} before any read served it"
                ) from None
