"""FastCDC — gear-based content-defined chunking (Xia et al., ATC'16).

FastCDC replaces the Rabin window with a *gear* hash (one table lookup, one
shift, one add per byte) and applies *normalized chunking*: a harder-to-match
mask before the normal size and an easier one after, which pulls the size
distribution toward the average and skips the sub-minimum region entirely.
This is the fastest real chunker in the package and the default for
byte-level examples.
"""

from __future__ import annotations

import random
from typing import List, Optional

from ..errors import ChunkingError
from .base import BaseChunker

_MASK64 = (1 << 64) - 1

#: Paper-config normalization level and gear-table seed.
DEFAULT_NORMALIZATION = 2
DEFAULT_SEED = 0xFA57


def _gear_table(seed: int) -> List[int]:
    rng = random.Random(seed)
    return [rng.getrandbits(64) for _ in range(256)]


def _spread_mask(bits: int) -> int:
    """Build a FastCDC-style padded mask with ``bits`` one-bits spread high."""
    mask = 0
    # Distribute the one-bits over the top 48 bits, as the paper recommends,
    # deterministically (every 48//bits-th position from the top).
    if bits <= 0:
        return 0
    step = max(1, 48 // bits)
    position = 63
    for _ in range(bits):
        mask |= 1 << position
        position -= step
    return mask


class FastCDCChunker(BaseChunker):
    """Gear-hash chunker with normalized chunking.

    Args:
        min_size / avg_size / max_size: size contract; ``avg_size`` must be a
            power of two.
        normalization: how many mask bits to add/remove around the average
            (the paper's "normalization level", usually 1-3).
        seed: gear-table seed.
    """

    def __init__(
        self,
        min_size: int = 2048,
        avg_size: int = 8192,
        max_size: int = 65536,
        normalization: int = DEFAULT_NORMALIZATION,
        seed: int = DEFAULT_SEED,
    ) -> None:
        super().__init__(min_size, avg_size, max_size)
        if avg_size & (avg_size - 1):
            raise ChunkingError("avg_size must be a power of two for FastCDC")
        if normalization < 0:
            raise ChunkingError("normalization level must be >= 0")
        self.normalization = normalization
        self.seed = seed
        bits = avg_size.bit_length() - 1
        self.mask_small = _spread_mask(bits + normalization)  # harder, pre-avg
        self.mask_large = _spread_mask(max(1, bits - normalization))  # easier
        self._gear = _gear_table(seed)

    def next_cut(self, data: memoryview, eof: bool) -> Optional[int]:
        available = len(data)
        if available == 0:
            return None
        limit = min(available, self.max_size)
        if limit <= self.min_size:
            if eof:
                return available if available <= self.max_size else self.max_size
            return None

        gear = self._gear
        mask_small = self.mask_small
        mask_large = self.mask_large
        normal = min(self.avg_size, limit)

        buf = bytes(data[:limit])
        h = 0
        pos = self.min_size
        while pos < normal:
            h = ((h << 1) + gear[buf[pos]]) & _MASK64
            if not (h & mask_small):
                return pos + 1
            pos += 1
        while pos < limit:
            h = ((h << 1) + gear[buf[pos]]) & _MASK64
            if not (h & mask_large):
                return pos + 1
            pos += 1
        if limit == self.max_size:
            return self.max_size
        return available if eof else None
