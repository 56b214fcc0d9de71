"""ChunkStash (Debnath, Sengupta & Li, ATC'10) — flash-assisted indexing.

Referenced in the paper's related work (§6) as the "use SSD instead of
disk" answer to the index bottleneck.  The design reproduced here:

* chunk metadata lives in a log on **flash** (not disk): reads are random
  but cheap, writes are sequential log appends;
* RAM holds a *compact* hash table: per key only a small **signature**
  (2 bytes here) plus a 4-byte pointer into the flash log — an order of
  magnitude smaller than a full in-RAM index;
* a lookup whose signature is absent is definitely new (no I/O at all);
  a signature match goes to flash to confirm (rarely a false match).

Accounting: flash probes are counted in :attr:`flash_lookups` only, not
in the ledger (the paper's Fig. 9 counts *disk* lookups, which ChunkStash
by construction has none of), so ``io_stats.index_lookups`` stays 0.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..chunking.stream import Chunk
from ..errors import IndexError_
from ..storage.io_model import IOStats
from ..units import RECIPE_ENTRY_SIZE
from .base import FingerprintIndex


class ChunkStashIndex(FingerprintIndex):
    """Compact RAM signatures + flash-resident metadata log.

    Args:
        signature_bytes: signature width kept in RAM per key (2 in the
            paper; more bytes → fewer false flash probes).
    """

    segment_size = 1

    def __init__(self, signature_bytes: int = 2, io_stats: Optional[IOStats] = None) -> None:
        super().__init__(io_stats)
        if not (1 <= signature_bytes <= 8):
            raise IndexError_("signature_bytes must be within 1..8")
        self.signature_bytes = signature_bytes
        # RAM: signature -> flash-log slots holding full entries.  Signature
        # collisions chain (several keys can share a signature).
        self._signatures: Dict[bytes, List[int]] = {}
        # Flash (modelled): append-only metadata log of (fp, cid).
        self._flash_log: List[tuple] = []
        self.flash_lookups = 0
        self.flash_false_probes = 0

    # ------------------------------------------------------------------
    def _signature(self, fingerprint: bytes) -> bytes:
        return fingerprint[: self.signature_bytes]

    def lookup_batch(self, chunks: Sequence[Chunk]) -> List[Optional[int]]:
        results: List[Optional[int]] = []
        for chunk in chunks:
            slots = self._signatures.get(self._signature(chunk.fingerprint))
            cid: Optional[int] = None
            if slots:
                # Signature hit: confirm against the flash log (one flash
                # read per candidate slot; usually exactly one).
                for slot in slots:
                    self.flash_lookups += 1
                    fp, stored_cid = self._flash_log[slot]
                    if fp == chunk.fingerprint:
                        cid = stored_cid
                        break
                else:
                    self.flash_false_probes += 1
            self.stats.note_classification(cid is not None)
            results.append(cid)
        return results

    def record(self, chunk: Chunk, cid: int) -> None:
        signature = self._signature(chunk.fingerprint)
        slots = self._signatures.get(signature)
        if slots:
            for i, slot in enumerate(slots):
                fp, stored_cid = self._flash_log[slot]
                if fp == chunk.fingerprint:
                    if stored_cid != cid:  # rewritten copy: append new entry
                        self._flash_log.append((chunk.fingerprint, cid))
                        slots[i] = len(self._flash_log) - 1
                    return
        self._flash_log.append((chunk.fingerprint, cid))
        self._signatures.setdefault(signature, []).append(len(self._flash_log) - 1)

    # ------------------------------------------------------------------
    @property
    def memory_bytes(self) -> int:
        # Per key: signature + 4-byte flash pointer (the compact table).
        entries = sum(len(slots) for slots in self._signatures.values())
        return entries * (self.signature_bytes + 4)

    @property
    def flash_bytes(self) -> int:
        """Modelled flash-log size (full 28-byte entries live on flash)."""
        return len(self._flash_log) * RECIPE_ENTRY_SIZE

    def __len__(self) -> int:
        return len(self._flash_log)
