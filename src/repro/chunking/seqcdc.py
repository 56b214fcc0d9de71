"""SeqCDC — sequence-based content-defined chunking (arXiv:2505.21194).

SeqCDC needs no rolling hash.  It declares a boundary where a fixed-length
run of strictly increasing values ends: with ``L`` the run length, the
chunk is cut after the first chunk-relative position ``p >= min_size``
whose keys ``p - L .. p`` strictly increase.  On random keys such a run
ends at a given position with probability about ``1 / (L + 1)!``, so ``L``
sets the mean distance from ``min_size`` to the cut and is derived from
``avg_size - min_size`` rather than configured (:func:`run_length`).

The published algorithm compares raw bytes.  That makes the cut rate a
function of byte entropy and of the data's grammar: data with fewer than
``L + 1`` distinct byte values holds no such run, nor does numeric CSV (a
run would need six ascending digits after a comma), so both degrade to
fixed-size chunking; hex text cuts about three times and source text
about twice as coarse as FastCDC.
Here the key at ``p`` is the 8-byte little-endian word ending at ``p``
times an odd 64-bit constant (:func:`word_key`), so the rule needs distinct
8-byte windows rather than uniform bytes.  Each key is computed from its
own window, never rolled from the previous one, so the numpy path is one
unaligned multiply and one comparison per byte.

The published algorithm also *skips* ahead after a run of decreases (its
"content-based jumping").  That is left out here: the numpy path in
:mod:`repro.chunking.vectorized` tests every position anyway, and skipping
would make a cut depend on where the scan started rather than only on the
bytes before it.
"""

from __future__ import annotations

import math
from struct import Struct
from typing import Optional

from ..errors import ChunkingError
from .base import BaseChunker

#: Bytes in the window each key is taken from.
WORD = 8
#: Odd multiplier (2**64 / golden ratio) that spreads a word over the key.
MULTIPLIER = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1
_WORD = Struct("<Q")


def run_length(min_size: int, avg_size: int) -> int:
    """The ``L`` whose ``(L + 1)!`` is nearest ``avg_size - min_size`` in log scale."""
    target = math.log(max(1, avg_size - min_size))
    length = 1
    while abs(math.lgamma(length + 3) - target) < abs(math.lgamma(length + 2) - target):
        length += 1
    return length


def word_key(data, end: int) -> int:
    """The key of position ``end``: the word ``data[end - 7 .. end]``, scrambled."""
    return _WORD.unpack_from(data, end - WORD + 1)[0] * MULTIPLIER & _MASK


class SeqCDCChunker(BaseChunker):
    """Cut where a run of ``L + 1`` strictly increasing keys ends.

    Args:
        min_size / avg_size / max_size: size contract.  The defaults give
            ``L = 6`` and a mean chunk close to paper-config FastCDC's.

    Raises:
        ChunkingError: when ``min_size`` is below ``L + 7``, the bytes a
            run ending at ``min_size`` reads (every one must lie inside its
            chunk).
    """

    def __init__(
        self,
        min_size: int = 3648,
        avg_size: int = 8192,
        max_size: int = 65536,
    ) -> None:
        super().__init__(min_size, avg_size, max_size)
        self.run = run_length(min_size, avg_size)
        if self.run + WORD - 1 > min_size:
            raise ChunkingError(
                f"SeqCDC run length {self.run} (from avg {avg_size} - min "
                f"{min_size}) reads {self.run + WORD - 1} bytes before a cut, "
                f"more than min_size"
            )

    def next_cut(self, data: memoryview, eof: bool) -> Optional[int]:
        available = len(data)
        if available == 0:
            return None
        limit = min(available, self.max_size)
        if limit <= self.min_size:
            return limit if eof or limit == self.max_size else None

        run = self.run
        buf = bytes(data[:limit])
        # ``rising`` counts the strict increases that end at ``pos``; the
        # scan starts early enough that a run ending at min_size is seen.
        rising = 0
        previous = word_key(buf, self.min_size - run)
        for pos in range(self.min_size - run + 1, limit):
            current = word_key(buf, pos)
            rising = rising + 1 if current > previous else 0
            if rising >= run and pos >= self.min_size:
                return pos + 1
            previous = current
        if limit == self.max_size:
            return self.max_size
        return available if eof else None
