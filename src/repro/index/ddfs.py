"""DDFS-style index: Bloom filter + full on-disk index + locality cache.

Zhu et al. (FAST'08) attack the disk-index bottleneck with three mechanisms,
all reproduced here:

1. A **summary vector** (Bloom filter) answers most *unique*-chunk lookups
   in memory — no disk probe when the filter says "never seen".
2. **Stream-informed segment layout**: chunk metadata is stored per container
   in stream order, so
3. **Locality-preserving caching**: when a lookup does go to disk and finds
   the chunk, the whole container's fingerprint metadata is prefetched into
   an LRU cache; subsequent chunks of the stream then hit memory.

Exact deduplication (no ratio loss); the price is the biggest resident index
footprint in Figure 10 and disk probes that grow with fragmentation in
Figure 9.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Sequence

from ..chunking.stream import Chunk
from ..errors import IndexError_
from ..storage.io_model import IOStats
from ..units import RECIPE_ENTRY_SIZE
from .base import FingerprintIndex
from .bloom import BloomFilter


class DDFSIndex(FingerprintIndex):
    """Bloom filter + locality-preserving container-metadata cache.

    Args:
        expected_chunks: Bloom filter sizing (unique chunks expected over the
            whole experiment).
        cache_containers: LRU capacity in *containers* of prefetched
            fingerprint metadata.
        false_positive_rate: Bloom target FP rate.
    """

    segment_size = 1

    def __init__(
        self,
        expected_chunks: int = 1_000_000,
        cache_containers: int = 64,
        false_positive_rate: float = 0.01,
        io_stats: Optional[IOStats] = None,
    ) -> None:
        super().__init__(io_stats)
        if cache_containers <= 0:
            raise IndexError_("cache_containers must be positive")
        self.bloom = BloomFilter(expected_chunks, false_positive_rate)
        self.cache_containers = cache_containers
        # On-disk structures (modelled): fp -> cid, and per-container metadata.
        self._table: Dict[bytes, int] = {}
        self._container_fps: Dict[int, List[bytes]] = {}
        # In-memory locality cache: cid -> set of fingerprints, LRU order.
        self._cache: "OrderedDict[int, Dict[bytes, None]]" = OrderedDict()
        self._cached_fp_to_cid: Dict[bytes, int] = {}

    # ------------------------------------------------------------------
    def _cache_insert(self, cid: int, fingerprints: Sequence[bytes]) -> None:
        if cid in self._cache:
            self._cache.move_to_end(cid)
            return
        self._cache[cid] = {fp: None for fp in fingerprints}
        for fp in fingerprints:
            self._cached_fp_to_cid[fp] = cid
        while len(self._cache) > self.cache_containers:
            old_cid, fps = self._cache.popitem(last=False)
            for fp in fps:
                if self._cached_fp_to_cid.get(fp) == old_cid:
                    del self._cached_fp_to_cid[fp]

    def lookup_batch(self, chunks: Sequence[Chunk]) -> List[Optional[int]]:
        results: List[Optional[int]] = []
        for chunk in chunks:
            results.append(self._lookup_one(chunk))
        return results

    def _lookup_one(self, chunk: Chunk) -> Optional[int]:
        fp = chunk.fingerprint
        # 1. Locality cache.
        cached = self._cached_fp_to_cid.get(fp)
        if cached is not None:
            self._cache.move_to_end(cached)
            self.stats.cache_hits += 1
            self.stats.note_classification(True)
            return cached
        # 2. Summary vector: "definitely new" skips the disk.
        if fp not in self.bloom:
            self.stats.note_classification(False)
            return None
        # 3. On-disk full index (billed), possible Bloom false positive.
        self.io_stats.note_index_lookup()
        cid = self._table.get(fp)
        if cid is None:
            self.stats.note_classification(False)
            return None
        # Locality prefetch: pull the whole container's metadata into cache.
        self._cache_insert(cid, self._container_fps.get(cid, [fp]))
        self.stats.note_classification(True)
        return cid

    def record(self, chunk: Chunk, cid: int) -> None:
        fp = chunk.fingerprint
        previous = self._table.get(fp)
        if previous is None:
            self.bloom.add(fp)
        if previous != cid:
            self._table[fp] = cid
            self._container_fps.setdefault(cid, []).append(fp)
        # The just-written container's metadata is naturally stream-local;
        # keep it hot so intra-version duplicates hit memory.
        if cid in self._cache:
            self._cache[cid][fp] = None
            self._cached_fp_to_cid[fp] = cid
        else:
            self._cache_insert(cid, [fp])

    # ------------------------------------------------------------------
    @property
    def memory_bytes(self) -> int:
        cache_entries = sum(len(fps) for fps in self._cache.values())
        return self.bloom.size_bytes + cache_entries * RECIPE_ENTRY_SIZE

    @property
    def table_bytes(self) -> int:
        """Modelled on-disk full-index size."""
        return len(self._table) * RECIPE_ENTRY_SIZE

    def __len__(self) -> int:
        return len(self._table)
