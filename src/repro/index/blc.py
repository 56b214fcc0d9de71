"""BLC — Block Locality Caching (Meister, Kaiser & Brinkmann, SYSTOR'13).

The locality information DDFS prefetches (container metadata in *write*
order) goes stale as backups evolve.  BLC instead exploits the locality of
the **most recent backup's recipe** (its "block index"), which is always
up to date: the cache is filled with fixed-size *pages* of the previous
recipe, fetched on demand.  An incoming chunk is looked up in the cached
pages first; on a miss the full on-disk index is probed (billed), and the
hit's surrounding previous-recipe page is faulted in — subsequent chunks of
the stream then hit the cache because the new backup mostly replays the
previous one's order.

Exact deduplication; compared with DDFS the cache tracks the *logical*
(recipe) order rather than the physical (container) order, so it stays
effective as fragmentation grows — and conceptually it is the closest
published ancestor of HiDeStore's T1 prefetch.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from ..chunking.stream import Chunk
from ..errors import IndexError_
from ..storage.io_model import IOStats
from ..units import RECIPE_ENTRY_SIZE
from .base import FingerprintIndex
from .bloom import BloomFilter


class BLCIndex(FingerprintIndex):
    """Block (recipe-page) locality caching over a full on-disk index.

    Like DDFS, a Bloom filter (summary vector) screens never-seen
    fingerprints so unique chunks cost no disk probe.

    Args:
        page_entries: chunks per cached recipe page.
        cache_pages: page cache capacity (LRU).
        expected_chunks: Bloom filter sizing.
    """

    segment_size = 1

    def __init__(
        self,
        page_entries: int = 512,
        cache_pages: int = 64,
        expected_chunks: int = 1_000_000,
        io_stats: Optional[IOStats] = None,
    ) -> None:
        super().__init__(io_stats)
        if page_entries <= 0 or cache_pages <= 0:
            raise IndexError_("page_entries and cache_pages must be positive")
        self.page_entries = page_entries
        self.cache_pages = cache_pages
        self.bloom = BloomFilter(expected_chunks)
        # On-disk structures (modelled).
        self._table: Dict[bytes, int] = {}  # full index: fp -> cid
        #: previous backup's recipe as pages: page id -> [(fp, cid)].
        self._previous_pages: List[List[Tuple[bytes, int]]] = []
        self._page_of_fp: Dict[bytes, int] = {}
        # Current backup's recipe being built (becomes previous at end).
        self._current_recipe: List[Tuple[bytes, int]] = []
        # RAM: LRU of previous-recipe pages + the fingerprints they expose.
        self._cache: "OrderedDict[int, None]" = OrderedDict()
        self._cached_fps: Dict[bytes, Tuple[int, int]] = {}  # fp -> (page, cid)

    # ------------------------------------------------------------------
    def begin_version(self, version_id: int, tag: str = "") -> None:
        self._current_recipe = []

    def end_version(self) -> None:
        # The just-written backup becomes the locality source for the next.
        self._previous_pages = [
            self._current_recipe[i : i + self.page_entries]
            for i in range(0, len(self._current_recipe), self.page_entries)
        ]
        self._page_of_fp = {}
        for page_id, page in enumerate(self._previous_pages):
            for fp, _cid in page:
                self._page_of_fp.setdefault(fp, page_id)
        self._current_recipe = []
        self._cache.clear()
        self._cached_fps.clear()

    # ------------------------------------------------------------------
    def _fault_page(self, page_id: int) -> None:
        if page_id in self._cache:
            self._cache.move_to_end(page_id)
            return
        self._cache[page_id] = None
        for fp, cid in self._previous_pages[page_id]:
            self._cached_fps[fp] = (page_id, cid)
        while len(self._cache) > self.cache_pages:
            evicted, _ = self._cache.popitem(last=False)
            for fp, _cid in self._previous_pages[evicted]:
                if self._cached_fps.get(fp, (None,))[0] == evicted:
                    del self._cached_fps[fp]

    def lookup_batch(self, chunks: Sequence[Chunk]) -> List[Optional[int]]:
        results: List[Optional[int]] = []
        for chunk in chunks:
            fp = chunk.fingerprint
            cached = self._cached_fps.get(fp)
            if cached is not None:
                self._cache.move_to_end(cached[0])
                self.stats.cache_hits += 1
                self.stats.note_classification(True)
                results.append(cached[1])
                continue
            # Summary vector: definitely-new chunks skip the disk.
            if fp not in self.bloom:
                self.stats.note_classification(False)
                results.append(None)
                continue
            # Miss: probe the full on-disk index (billed).
            self.io_stats.note_index_lookup()
            cid = self._table.get(fp)
            if cid is None:
                self.stats.note_classification(False)
                results.append(None)
                continue
            # Fault in the previous-recipe page around this chunk, if any —
            # the stream will likely continue in that page's order.
            page_id = self._page_of_fp.get(fp)
            if page_id is not None:
                self._fault_page(page_id)
            self.stats.note_classification(True)
            results.append(cid)
        return results

    def record(self, chunk: Chunk, cid: int) -> None:
        if chunk.fingerprint not in self._table:
            self.bloom.add(chunk.fingerprint)
        self._table[chunk.fingerprint] = cid
        self._current_recipe.append((chunk.fingerprint, cid))

    # ------------------------------------------------------------------
    @property
    def memory_bytes(self) -> int:
        return self.bloom.size_bytes + len(self._cached_fps) * RECIPE_ENTRY_SIZE

    @property
    def table_bytes(self) -> int:
        """Modelled on-disk full-index size."""
        return len(self._table) * RECIPE_ENTRY_SIZE

    def __len__(self) -> int:
        return len(self._table)
