"""Extreme Binning (Bhagwat et al., MASCOTS'09) — file-similarity indexing.

Referenced by the paper's related work (§6) for workloads with poor
stream locality.  The RAM-resident *primary index* holds one entry per file:
the file's representative chunk ID (its minimum fingerprint, by Broder's
theorem a good similarity proxy) plus the whole-file hash and a pointer to a
disk-resident *bin* of the file's chunk fingerprints.  An incoming file is
deduplicated against exactly one bin — the one its representative selects —
loaded with a single disk access; the bin is then updated with the file's
new chunks.  Whole-file duplicates short-circuit via the file hash.

Backup streams here have no file boundaries, so the index bins at its batch
(segment) granularity, the same stand-in SiLo uses for its segments.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence

from ..chunking.stream import Chunk
from ..errors import IndexError_
from ..storage.io_model import IOStats
from ..units import RECIPE_ENTRY_SIZE
from .base import FingerprintIndex


class ExtremeBinningIndex(FingerprintIndex):
    """One-RAM-entry-per-file similarity index with disk bins.

    Args:
        segment_chunks: chunks per "file" (batch unit).
    """

    def __init__(self, segment_chunks: int = 256, io_stats: Optional[IOStats] = None) -> None:
        super().__init__(io_stats)
        if segment_chunks <= 0:
            raise IndexError_("segment_chunks must be positive")
        self.segment_size = segment_chunks
        # RAM primary index: representative fp -> (whole-file hash, bin id).
        self._primary: Dict[bytes, List] = {}
        # Disk bins: bin id -> {fp: cid}.
        self._bins: Dict[int, Dict[bytes, int]] = {}
        self._next_bin_id = 1
        # State carried from lookup to record/end_batch.
        self._pending_rep: Optional[bytes] = None
        self._pending_hash: Optional[bytes] = None
        self._pending_bin: Optional[int] = None
        self._segment: Dict[bytes, int] = {}
        self.whole_file_hits = 0

    # ------------------------------------------------------------------
    @staticmethod
    def _whole_hash(chunks: Sequence[Chunk]) -> bytes:
        digest = hashlib.sha1()
        for chunk in chunks:
            digest.update(chunk.fingerprint)
        return digest.digest()

    def lookup_batch(self, chunks: Sequence[Chunk]) -> List[Optional[int]]:
        if not chunks:
            return []
        representative = min(c.fingerprint for c in chunks)
        whole = self._whole_hash(chunks)
        self._pending_rep = representative
        self._pending_hash = whole
        self._pending_bin = None

        known: Dict[bytes, int] = {}
        entry = self._primary.get(representative)
        if entry is not None:
            stored_hash, bin_id = entry
            self._pending_bin = bin_id
            # One disk access loads the bin (even for whole-file duplicates
            # the chunk locations must be read for the recipe).
            self.io_stats.note_index_lookup()
            known = self._bins[bin_id]
            if stored_hash == whole:
                self.whole_file_hits += 1

        results: List[Optional[int]] = []
        for chunk in chunks:
            cid = known.get(chunk.fingerprint)
            if cid is not None:
                self.stats.cache_hits += 1
                self.stats.note_classification(True)
                results.append(cid)
            else:
                self.stats.note_classification(False)
                results.append(None)
        return results

    def record(self, chunk: Chunk, cid: int) -> None:
        self._segment[chunk.fingerprint] = cid

    def end_batch(self) -> None:
        if not self._segment:
            return
        rep = self._pending_rep if self._pending_rep is not None else min(self._segment)
        if self._pending_bin is not None:
            # Merge the file's chunks into the existing bin (bin update).
            self._bins[self._pending_bin].update(self._segment)
            bin_id = self._pending_bin
        else:
            bin_id = self._next_bin_id
            self._next_bin_id += 1
            self._bins[bin_id] = dict(self._segment)
        self._primary[rep] = [self._pending_hash, bin_id]
        self._segment = {}
        self._pending_rep = None
        self._pending_hash = None
        self._pending_bin = None

    def end_version(self) -> None:
        self.end_batch()

    # ------------------------------------------------------------------
    @property
    def memory_bytes(self) -> int:
        # Primary index: 20-byte rep + 20-byte whole hash + 4-byte bin id.
        return len(self._primary) * 44

    @property
    def table_bytes(self) -> int:
        """Modelled on-disk bin bytes."""
        return sum(len(b) for b in self._bins.values()) * RECIPE_ENTRY_SIZE
