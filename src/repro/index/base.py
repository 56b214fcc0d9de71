"""Fingerprint-index interface shared by every deduplication scheme.

An index answers, for each chunk of a backup stream *in order*: is this a
duplicate, and if so in which container does it already live?  Schemes differ
wildly in how they answer (exact on-disk tables, Bloom filters + locality
caches, sampled sparse indexes, similarity hashes), so the interface exposes:

* ``segment_size`` — how many chunks the scheme wants to see at once.
  Streaming schemes (DDFS, exact) use 1; batch schemes (Sparse Indexing,
  SiLo) deduplicate whole segments against chosen "champions".
* :meth:`lookup_batch` — classify a batch; ``None`` means "treat as unique".
  Near-exact schemes may return ``None`` for true duplicates — that is
  precisely where their deduplication ratio loss comes from.
* :meth:`record` — called for **every** chunk afterwards with the container
  the pipeline finally placed it in (new container for uniques/rewrites, the
  looked-up container otherwise), so the index can learn locations.

Disk-probe accounting: every probe that would hit the platter in the real
system (full-index lookup, champion-manifest load, similarity-block load)
is billed to the engine's ledger (``io_stats.index_lookups``) — the paper's
Figure 9 "lookup requests" metric.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..chunking.stream import Chunk
from ..storage.io_model import IOStats


@dataclass
class IndexStats:
    """Counters every index keeps (on-disk probes go to the ledger)."""

    lookups: int = 0  # chunks classified
    cache_hits: int = 0  # answered from memory
    duplicates: int = 0
    uniques: int = 0

    def note_classification(self, duplicate: bool) -> None:
        self.lookups += 1
        if duplicate:
            self.duplicates += 1
        else:
            self.uniques += 1


class FingerprintIndex(ABC):
    """Base class for all fingerprint indexes."""

    #: Chunks per lookup batch; subclasses override (1 = streaming).
    segment_size: int = 1

    def __init__(self, io_stats: Optional[IOStats] = None) -> None:
        self.stats = IndexStats()
        self.io_stats = io_stats if io_stats is not None else IOStats()

    # ------------------------------------------------------------------
    def begin_version(self, version_id: int, tag: str = "") -> None:
        """Hook invoked before the first chunk of a version. Optional."""

    @abstractmethod
    def lookup_batch(self, chunks: Sequence[Chunk]) -> List[Optional[int]]:
        """Classify a batch of chunks in stream order.

        Returns one element per chunk: the container ID the duplicate lives
        in, or ``None`` for chunks to be stored as unique.
        """

    @abstractmethod
    def record(self, chunk: Chunk, cid: int) -> None:
        """Learn the final location of a chunk the pipeline just placed."""

    def end_batch(self) -> None:
        """Hook invoked after every batch's :meth:`record` calls. Optional.

        Batch schemes use it to seal the segment they just deduplicated
        (e.g. Sparse Indexing writes the segment's manifest and hooks here).
        """

    def end_version(self) -> None:
        """Hook invoked after the last chunk of a version. Optional."""

    # ------------------------------------------------------------------
    @property
    @abstractmethod
    def memory_bytes(self) -> int:
        """Resident bytes of the *persistent* in-memory index structures.

        This is Figure 10's "index table overhead" numerator: Bloom filters,
        locality caches, sparse hook tables, similarity tables.  Transient
        per-version scratch space does not count (matching how the paper
        credits HiDeStore with near-zero index overhead).
        """

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"{type(self).__name__}(lookups={self.stats.lookups}, "
            f"disk={self.io_stats.index_lookups}, mem={self.memory_bytes})"
        )
