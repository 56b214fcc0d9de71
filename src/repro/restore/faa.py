"""FAA — Forward Assembly Area restore (Lillibridge et al., FAST'13).

The restore buffer is treated as an M-byte *assembly area*.  The recipe is
consumed one area-full at a time: first plan which container supplies each
byte range of the area, then read each required container **exactly once**
(in first-need order), copying every chunk it supplies anywhere in the area.
Because the recipe is known in advance, FAA never re-reads a container for
the same area and needs no eviction policy at all.

FAA is scheduler-native: the planning half lives in
:class:`~repro.restore.scheduler.FAAScheduler` and this class merely
executes the plan serially against the billed reader — which is how the
same policy also drives the pipelined real-path executor in
:mod:`repro.engine.restore` without a second implementation.  It is the
only policy that executor runs.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from ..chunking.stream import Chunk
from ..errors import RestoreError
from ..storage.recipe import RecipeEntry
from ..units import MiB
from .base import ContainerReader, RestoreAlgorithm
from .scheduler import FAAScheduler, RestoreScheduler, execute_plan


class FAARestore(RestoreAlgorithm):
    """Forward assembly area.

    Args:
        area_bytes: assembly-area size M (default 256 MiB; the original paper
            explores 128 MB-1 GB).
    """

    name = "faa"

    def __init__(self, area_bytes: int = 256 * MiB) -> None:
        if area_bytes <= 0:
            raise RestoreError("area_bytes must be positive")
        self.area_bytes = area_bytes

    def scheduler(self) -> RestoreScheduler:
        return FAAScheduler(self.area_bytes)

    def restore(
        self, entries: Sequence[RecipeEntry], reader: ContainerReader
    ) -> Iterator[Chunk]:
        self._check_positive_cids(entries)
        plan = self.scheduler().plan([e.cid for e in entries], [e.size for e in entries])
        return execute_plan([e.fingerprint for e in entries], plan, reader)
