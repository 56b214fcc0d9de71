"""Sparse Indexing (Lillibridge et al., FAST'09) — sampled hooks + champions.

The stream is cut into multi-megabyte *segments*.  Only a sampled subset of
each segment's fingerprints ("hooks", 1-in-``sample_rate``) is kept in RAM,
mapping hook → the manifests (past segments) that contained it.  A new
segment is deduplicated only against a handful of *champion* manifests —
past segments sharing the most hooks — each of whose manifest loads costs
one disk probe.  Chunks the champions don't cover are stored again even if
they exist elsewhere: that bounded miss is the scheme's deduplication-ratio
loss in Figure 8, in exchange for a tiny RAM footprint in Figure 10.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..chunking.stream import Chunk
from ..errors import IndexError_
from ..storage.io_model import IOStats
from ..units import RECIPE_ENTRY_SIZE
from .base import FingerprintIndex


class SparseIndex(FingerprintIndex):
    """Near-exact deduplication via sampling and champion manifests.

    Args:
        segment_chunks: chunks per segment (the batch unit).
        sample_rate: 1-in-N hook sampling (the paper's experiments use up to
            128:1); sampling tests the fingerprint's low bits so it is
            content-derived and deterministic.
        max_champions: manifests loaded per segment (disk probes per segment).
        hook_capacity: max manifest IDs remembered per hook (FIFO of most
            recent, as in the paper).
    """

    def __init__(
        self,
        segment_chunks: int = 1024,
        sample_rate: int = 64,
        max_champions: int = 8,
        hook_capacity: int = 4,
        io_stats: Optional[IOStats] = None,
    ) -> None:
        super().__init__(io_stats)
        if segment_chunks <= 0 or sample_rate <= 0 or max_champions <= 0:
            raise IndexError_("segment_chunks, sample_rate, max_champions must be positive")
        self.segment_size = segment_chunks
        self.sample_rate = sample_rate
        self.max_champions = max_champions
        self.hook_capacity = hook_capacity
        # RAM: hook fingerprint -> recent manifest ids.
        self._sparse: Dict[bytes, List[int]] = {}
        # Disk (modelled): manifest id -> {fp: cid}.
        self._manifests: Dict[int, Dict[bytes, int]] = {}
        self._next_manifest_id = 1
        self._current_manifest: Dict[bytes, int] = {}

    # ------------------------------------------------------------------
    def _is_hook(self, fingerprint: bytes) -> bool:
        # Fingerprints are uniform, so low bits give an unbiased sample.
        return int.from_bytes(fingerprint[-4:], "big") % self.sample_rate == 0

    def _choose_champions(self, hooks: Sequence[bytes]) -> List[int]:
        """Rank candidate manifests by hook overlap; greedy top-k."""
        votes: Dict[int, int] = {}
        for hook in hooks:
            for manifest_id in self._sparse.get(hook, ()):
                votes[manifest_id] = votes.get(manifest_id, 0) + 1
        # Highest vote count first; newest manifest breaks ties (better
        # locality with the most recent backup).
        ranked = sorted(votes.items(), key=lambda kv: (-kv[1], -kv[0]))
        return [manifest_id for manifest_id, _ in ranked[: self.max_champions]]

    def lookup_batch(self, chunks: Sequence[Chunk]) -> List[Optional[int]]:
        hooks = [c.fingerprint for c in chunks if self._is_hook(c.fingerprint)]
        champions = self._choose_champions(hooks)
        # Loading each champion manifest is one random disk read.
        known: Dict[bytes, int] = {}
        for manifest_id in champions:
            self.io_stats.note_index_lookup()
            known.update(self._manifests[manifest_id])

        results: List[Optional[int]] = []
        for chunk in chunks:
            cid = known.get(chunk.fingerprint)
            if cid is not None:
                self.stats.cache_hits += 1
                self.stats.note_classification(True)
                results.append(cid)
            else:
                # Not covered by any champion: treated as unique (this is the
                # scheme's bounded dedup-ratio loss).  Intra-segment repeats
                # are absorbed by the pipeline's write-buffer dedup.
                self.stats.note_classification(False)
                results.append(None)
        return results

    def record(self, chunk: Chunk, cid: int) -> None:
        self._current_manifest[chunk.fingerprint] = cid

    def end_batch(self) -> None:
        """Seal the just-deduplicated segment into a manifest + hooks."""
        if not self._current_manifest:
            return
        manifest_id = self._next_manifest_id
        self._next_manifest_id += 1
        self._manifests[manifest_id] = dict(self._current_manifest)
        for fp in self._current_manifest:
            if self._is_hook(fp):
                entry = self._sparse.setdefault(fp, [])
                entry.append(manifest_id)
                if len(entry) > self.hook_capacity:
                    del entry[0]
        self._current_manifest.clear()

    def end_version(self) -> None:
        self.end_batch()

    # ------------------------------------------------------------------
    @property
    def memory_bytes(self) -> int:
        # Each hook entry: 20-byte fp key + 8 bytes per manifest reference.
        refs = sum(len(v) for v in self._sparse.values())
        return len(self._sparse) * 20 + refs * 8

    @property
    def table_bytes(self) -> int:
        """Modelled on-disk manifest bytes."""
        entries = sum(len(m) for m in self._manifests.values())
        return entries * RECIPE_ENTRY_SIZE
