"""SiLo (Xia et al., ATC'11) — joint similarity & locality deduplication.

SiLo splits the stream into small *segments* and packs consecutive segments
into large *blocks*.  Similarity: each segment is represented in RAM by its
minimum fingerprint only; a match in the similarity hash table (SHTable)
pulls the matching segment's whole *block* from disk (one probe) into a
read cache.  Locality: because the block carries the segment's neighbours,
near-duplicate segments that the similarity sample misses are still found in
the cached block.  The result is a tiny RAM index (one entry per segment)
with near-exact deduplication — the middle ground of Figures 8-10.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Sequence

from ..chunking.stream import Chunk
from ..errors import IndexError_
from ..storage.io_model import IOStats
from ..units import RECIPE_ENTRY_SIZE
from .base import FingerprintIndex


class SiLoIndex(FingerprintIndex):
    """Similarity-and-locality index.

    Args:
        segment_chunks: chunks per similarity segment (batch unit).
        segments_per_block: segments packed into one locality block.
        cache_blocks: read-cache capacity in blocks.
    """

    def __init__(
        self,
        segment_chunks: int = 256,
        segments_per_block: int = 8,
        cache_blocks: int = 16,
        io_stats: Optional[IOStats] = None,
    ) -> None:
        super().__init__(io_stats)
        if segment_chunks <= 0 or segments_per_block <= 0 or cache_blocks <= 0:
            raise IndexError_("SiLo parameters must be positive")
        self.segment_size = segment_chunks
        self.segments_per_block = segments_per_block
        self.cache_blocks = cache_blocks
        # RAM: similarity table, min-fp -> block id.
        self._shtable: Dict[bytes, int] = {}
        # Disk (modelled): block id -> {fp: cid}.
        self._blocks: Dict[int, Dict[bytes, int]] = {}
        self._next_block_id = 1
        # Write buffer: the block currently being filled.
        self._open_block: Dict[bytes, int] = {}
        self._open_block_reps: List[bytes] = []
        self._open_segment: Dict[bytes, int] = {}
        # Read cache: block id -> fp map, LRU.
        self._cache: "OrderedDict[int, Dict[bytes, int]]" = OrderedDict()

    # ------------------------------------------------------------------
    def _cache_block(self, block_id: int) -> Dict[bytes, int]:
        if block_id in self._cache:
            self._cache.move_to_end(block_id)
            return self._cache[block_id]
        self.io_stats.note_index_lookup()
        block = self._blocks[block_id]
        self._cache[block_id] = block
        while len(self._cache) > self.cache_blocks:
            self._cache.popitem(last=False)
        return block

    def lookup_batch(self, chunks: Sequence[Chunk]) -> List[Optional[int]]:
        if not chunks:
            return []
        representative = min(c.fingerprint for c in chunks)
        block_id = self._shtable.get(representative)
        if block_id is not None and block_id in self._blocks:
            self._cache_block(block_id)

        results: List[Optional[int]] = []
        for chunk in chunks:
            fp = chunk.fingerprint
            cid = self._open_block.get(fp)
            if cid is None:
                for cached in reversed(self._cache.values()):
                    cid = cached.get(fp)
                    if cid is not None:
                        break
            if cid is not None:
                self.stats.cache_hits += 1
                self.stats.note_classification(True)
                results.append(cid)
            else:
                self.stats.note_classification(False)
                results.append(None)
        return results

    def record(self, chunk: Chunk, cid: int) -> None:
        self._open_segment[chunk.fingerprint] = cid

    def end_batch(self) -> None:
        if not self._open_segment:
            return
        # The representative is recomputed over the recorded segment — the
        # same chunk set lookup_batch sampled, so the same minimum.
        rep = min(self._open_segment)
        self._open_block.update(self._open_segment)
        self._open_block_reps.append(rep)
        self._open_segment = {}
        if len(self._open_block_reps) >= self.segments_per_block:
            self._flush_block()

    def _flush_block(self) -> None:
        if not self._open_block:
            return
        block_id = self._next_block_id
        self._next_block_id += 1
        self._blocks[block_id] = dict(self._open_block)
        for rep in self._open_block_reps:
            self._shtable[rep] = block_id
        self._open_block = {}
        self._open_block_reps = []

    def end_version(self) -> None:
        self.end_batch()
        self._flush_block()

    # ------------------------------------------------------------------
    @property
    def memory_bytes(self) -> int:
        # SHTable: 20-byte representative fingerprint + 4-byte block id.
        return len(self._shtable) * 24

    @property
    def table_bytes(self) -> int:
        """Modelled on-disk block-manifest bytes."""
        entries = sum(len(b) for b in self._blocks.values())
        return entries * RECIPE_ENTRY_SIZE
