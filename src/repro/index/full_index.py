"""Exact full fingerprint index — the correctness yardstick.

Every fingerprint ever stored maps to its container.  In a real system this
table lives on disk and every miss of whatever cache sits in front of it is a
random I/O; here the table is a dict, but *every* probe is billed as a disk
lookup (there is no cache in front), which makes this the worst-case curve in
Figure 9 and the highest bar in Figure 10.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..chunking.stream import Chunk
from ..storage.io_model import IOStats
from ..units import RECIPE_ENTRY_SIZE
from .base import FingerprintIndex


class ExactFullIndex(FingerprintIndex):
    """Exact deduplication with a full (modelled on-disk) index, no cache."""

    segment_size = 1

    def __init__(self, io_stats: Optional[IOStats] = None) -> None:
        super().__init__(io_stats)
        self._table: Dict[bytes, int] = {}

    def lookup_batch(self, chunks: Sequence[Chunk]) -> List[Optional[int]]:
        results: List[Optional[int]] = []
        for chunk in chunks:
            self.io_stats.note_index_lookup()
            cid = self._table.get(chunk.fingerprint)
            self.stats.note_classification(cid is not None)
            results.append(cid)
        return results

    def record(self, chunk: Chunk, cid: int) -> None:
        self._table[chunk.fingerprint] = cid

    @property
    def memory_bytes(self) -> int:
        # The table itself is on disk; only negligible bookkeeping is resident.
        return 0

    @property
    def table_bytes(self) -> int:
        """On-disk size of the full table (one 28-byte entry per unique chunk)."""
        return len(self._table) * RECIPE_ENTRY_SIZE

    def __len__(self) -> int:
        return len(self._table)

    def __contains__(self, fingerprint: bytes) -> bool:
        return fingerprint in self._table
