"""Vectorized chunk-boundary detection (numpy-accelerated, exact).

The scalar :meth:`~repro.chunking.fastcdc.FastCDCChunker.next_cut` walks one
byte at a time through the Python interpreter, which caps ingest throughput
at a few MB/s and dwarfs every other stage of the backup pipeline.  This
module computes the *same* cut points with numpy, two orders of magnitude
faster, by exploiting a property of the gear hash: because each step shifts
the 64-bit state left by one, a byte stops influencing the hash after 64
steps.  The chunk-local hash at position ``p`` therefore equals the
*windowed* hash

    ``W[p] = sum_{j=0}^{63} gear[data[p-j]] << j   (mod 2**64)``

whenever at least 64 bytes of the current chunk have been hashed — i.e. for
positions ``>= min_size + 63`` relative to the chunk start.  ``W`` depends
only on the data, not on chunk boundaries, so it is computed once for the
whole buffer (by log-doubling, six vector passes over cache-sized tiles) and
reduced to two sorted arrays of mask-hit positions.

Cuts are then found in two steps, neither of which touches a byte from the
interpreter.  The chunk chain is walked *speculatively* with a ``bisect`` per
chunk over the hit positions, as if no chunk ever cut inside its first 63
hashed positions, where the window is still filling and ``W`` is not the
chunk-local hash.  Those warm-up positions of every start on the walked
chain are then checked in one batch: a ``(starts, 63)`` byte matrix goes
through the same six shift-add passes along its rows, so row ``r`` column
``k`` is exactly the scalar hash after ``k + 1`` bytes of chunk ``r``.  On
the rare warm-up hit (about 0.2 % of chunks at the default sizes) that cut is
fixed and the walk resumes from it.

:class:`~repro.chunking.seqcdc.SeqCDCChunker` needs no rolling hash: each
position's key is the unaligned 8-byte word ending there times one odd
constant (a strided ``uint64`` view, no copy), and a position ends a run
when it and the ``L - 1`` positions before it each hold a key greater than
its predecessor: one multiply, one comparison and ``L - 1`` ANDs of
shifted boolean views (:func:`seq_cuts`).  Its ``min_size`` is at least
``L + 7``, so the bytes a run a chunk may cut at reads never reach back
past the chunk start and the hit positions need no warm-up check: the same
``bisect`` walk gives the scalar cuts directly.

:func:`cut_lengths` takes any byte buffer (``bytes``, ``memoryview``, a
shared-memory slab) and :func:`split_fast` is a drop-in replacement for
``chunker.split`` built on it.  Both fall back to the scalar path for other
chunkers, small buffers, or when numpy is unavailable — callers never need
to gate on ``HAVE_NUMPY``.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Optional, Tuple

from .base import BaseChunker
from .fastcdc import FastCDCChunker
from .seqcdc import MULTIPLIER, WORD, SeqCDCChunker

try:  # pragma: no cover - exercised implicitly by every import
    import numpy as _np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - environment without numpy
    _np = None
    HAVE_NUMPY = False

#: Gear-hash memory: one left-shift per byte over 64-bit state.
_WINDOW = 64

#: Tile size for the windowed-hash pass.  The pass streams two uint64
#: buffers of this many elements, and is fastest while both stay in this
#: box's share of L2: 32-64 KiB measured best, 128 KiB a third slower
#: (EXPERIMENTS.md "Chunking kernel (PR 22)" has the sweep).
_TILE = 64 * 1024

#: Tile size for the SeqCDC run pass: a ``uint64`` key buffer and two bool
#: buffers of this many elements.  On a 2-vCPU Xeon, 64, 128 and 256 KiB
#: tiles time within 4 % of each other on a 4 MiB segment (EXPERIMENTS.md
#: "SeqCDC default").
_SEQ_TILE = 256 * 1024

#: Below this, scalar chunking wins: the vector path costs ~55 us before
#: its first byte, the scalar loop ~0.1 us per hashed byte (crossover
#: measured at 1-3 KiB depending on ``min_size``).
_MIN_VECTOR_BYTES = 4 * 1024


def _gear_array(chunker: FastCDCChunker):
    cached = getattr(chunker, "_gear_np", None)
    if cached is None:
        cached = _np.array(chunker._gear, dtype=_np.uint64)
        chunker._gear_np = cached
    return cached


def _shift_add(w, scratch) -> None:
    """Log-doubling along the last axis of ``w``, in place.

    Afterwards ``w[..., p] = sum_j gear_byte[p - j] << j`` over
    ``j in [0, min(p, 63)]``: a complete window from index 63 on, and
    before that exactly the scalar hash of the first ``p + 1`` bytes.
    ``scratch`` has the shape of ``w``.
    """
    n = w.shape[-1]
    for k in (1, 2, 4, 8, 16, 32):
        if k >= n:
            break
        shifted = scratch[..., : n - k]
        _np.left_shift(w[..., : n - k], _np.uint64(k), out=shifted)
        _np.add(w[..., k:], shifted, out=w[..., k:])


def _hit_positions(chunker: FastCDCChunker, data) -> Tuple[List[int], List[int]]:
    """Sorted absolute positions where ``W[p] & mask == 0``, per mask.

    ``data`` is a uint8 array.  Computed tile-by-tile with a 63-byte prefix
    overlap so every queried position sees a complete window regardless of
    tile boundaries; positions below 63 hold partial windows and are never
    queried.
    """
    gear_np = _gear_array(chunker)
    masks = (_np.uint64(chunker.mask_small), _np.uint64(chunker.mask_large))
    parts: Tuple[list, list] = ([], [])
    total = data.shape[0]
    size = min(total, _TILE) + _WINDOW
    hashes = _np.empty(size, dtype=_np.uint64)
    scratch = _np.empty(size, dtype=_np.uint64)
    for start in range(0, total, _TILE):
        lead = min(start, _WINDOW - 1)
        tile = data[start - lead : start + _TILE]
        w = hashes[: tile.shape[0]]
        # mode="wrap" only because the default checks bounds through a
        # temporary; a uint8 index cannot leave a 256-entry table.
        _np.take(gear_np, tile, out=w, mode="wrap")
        _shift_add(w, scratch[: tile.shape[0]])
        for mask, found in zip(masks, parts):
            found.append(_np.flatnonzero((w[lead:] & mask) == 0) + start)
    small, large = (_np.concatenate(found).tolist() for found in parts)
    return small, large


def _first_warmup_hit(chunker: FastCDCChunker, data,
                      starts: List[int]) -> Optional[Tuple[int, int]]:
    """``(row, cut)`` of the first chunk start whose cut lies in its warm-up.

    The warm-up is the chunk-relative positions ``min_size .. min_size + 62``
    (fewer when ``max_size`` or the end of ``data`` comes first), where the
    chunk-local hash covers fewer than 64 bytes.  Returns ``None`` when no
    start on the chain cuts there.
    """
    min_size = chunker.min_size
    width = min(_WINDOW - 1, chunker.max_size - min_size)
    if width <= 0:
        return None
    offsets = _np.arange(min_size, min_size + width)
    base = _np.array(starts)[:, None]
    h = _gear_array(chunker).take(data.take(base + offsets, mode="clip"))
    _shift_add(h, _np.empty_like(h))
    # A position below avg_size is tested against the hard mask.  (The
    # scalar switch is at min(avg_size, limit), which differs only for
    # positions at or past limit, and those are masked out below.)
    masks = _np.where(offsets < chunker.avg_size,
                      _np.uint64(chunker.mask_small), _np.uint64(chunker.mask_large))
    hit = (h & masks) == 0
    hit &= offsets < data.shape[0] - base
    rows, columns = hit.nonzero()
    if rows.shape[0] == 0:
        return None
    return int(rows[0]), min_size + int(columns[0]) + 1


def vector_cuts(chunker: FastCDCChunker, data) -> List[int]:
    """Chunk lengths of ``data``, bit-identical to the scalar chunker.

    Equivalent to collecting ``len(piece) for piece in chunker.iter_split``
    — same normalized-chunking mask switch at ``avg_size``, same forced cut
    at ``max_size``, same short final tail.
    """
    data = _np.frombuffer(data, dtype=_np.uint8)
    total = data.shape[0]
    small, large = _hit_positions(chunker, data)
    min_size = chunker.min_size
    avg_size = chunker.avg_size
    max_size = chunker.max_size
    # First chunk-relative position where W[] equals the chunk-local hash:
    # the window has shifted the pre-min_size void fully out of the state.
    warm_end = min_size + _WINDOW - 1

    cuts: List[int] = []
    s = 0
    # How many chunks to walk before checking their warm-ups: a hit throws
    # away the walk behind it, so the stride follows how often hits happen.
    stride = 64
    while s < total:
        starts: List[int] = []
        lengths: List[int] = []
        while s < total and len(starts) < stride:
            limit = min(total - s, max_size)
            cut = limit
            if warm_end < limit:
                normal = min(avg_size, limit)
                if warm_end < normal:
                    i = bisect_left(small, s + warm_end)
                    if i < len(small) and small[i] < s + normal:
                        cut = small[i] - s + 1
                if cut == limit:
                    i = bisect_left(large, s + max(normal, warm_end))
                    if i < len(large) and large[i] < s + limit:
                        cut = large[i] - s + 1
            starts.append(s)
            lengths.append(cut)
            s += cut
        hit = _first_warmup_hit(chunker, data, starts)
        if hit is None:
            cuts += lengths
            stride *= 2
        else:
            row, cut = hit
            cuts += lengths[:row]
            cuts.append(cut)
            s = starts[row] + cut
            stride = max(1, stride // 2)
    return cuts


def _run_ends(data, run: int) -> List[int]:
    """Sorted byte positions ``p`` whose keys ``p - run .. p`` strictly
    increase, tile by tile, each tile led by the ``run`` keys its first
    position looks back at."""
    # words[j] is the little-endian word of bytes j .. j + WORD - 1.
    total = len(data) - WORD + 1
    words = _np.ndarray((max(total, 0),), dtype="<u8", buffer=data, strides=(1,))
    multiplier = _np.uint64(MULTIPLIER)
    keys = _np.empty(_SEQ_TILE + run, dtype=_np.uint64)
    rising = _np.empty(_SEQ_TILE + run, dtype=bool)
    ends = _np.empty(_SEQ_TILE, dtype=bool)
    found = []
    for start in range(run, total, _SEQ_TILE):
        stop = min(start + _SEQ_TILE, total)
        width = stop - start
        tile = keys[: width + run]
        _np.multiply(words[start - run : stop], multiplier, out=tile)
        # rising[j]: the key of word start - run + j + 1 exceeds the one before.
        up = rising[: width + run - 1]
        _np.greater(tile[1:], tile[:-1], out=up)
        hit = ends[:width]
        _np.copyto(hit, up[:width])
        for k in range(1, run):
            _np.logical_and(hit, up[k : k + width], out=hit)
        found.append(_np.flatnonzero(hit) + (start + WORD - 1))
    return _np.concatenate(found).tolist() if found else []


def seq_cuts(chunker: SeqCDCChunker, data) -> List[int]:
    """Chunk lengths of ``data``, identical to the scalar SeqCDC chunker."""
    total = len(data)
    ends = _run_ends(data, chunker.run)
    min_size = chunker.min_size
    max_size = chunker.max_size
    cuts: List[int] = []
    s = 0
    while s < total:
        limit = min(total - s, max_size)
        cut = limit
        if limit > min_size:
            i = bisect_left(ends, s + min_size)
            if i < len(ends) and ends[i] < s + limit:
                cut = ends[i] - s + 1
        cuts.append(cut)
        s += cut
    return cuts


def cut_lengths(chunker: BaseChunker, data) -> List[int]:
    """``[len(piece) for piece in chunker.split(data)]`` for any byte buffer.

    The vector path is taken only for a plain :class:`FastCDCChunker` or
    :class:`SeqCDCChunker` (subclasses may override ``next_cut``), with
    numpy present, on buffers large enough to amortise the vector passes.
    No payload byte is copied on it, so a ``memoryview`` of a shared-memory
    slab is chunked in place.
    """
    if HAVE_NUMPY and len(data) >= _MIN_VECTOR_BYTES:
        if type(chunker) is FastCDCChunker:
            return vector_cuts(chunker, data)
        if type(chunker) is SeqCDCChunker:
            return seq_cuts(chunker, data)
    return [len(piece) for piece in chunker.iter_split(data)]


def split_fast(chunker: BaseChunker, data: bytes) -> List[bytes]:
    """``chunker.split(data)`` through :func:`cut_lengths`: byte-identical."""
    if not isinstance(data, bytes):
        data = bytes(data)
    pieces: List[bytes] = []
    offset = 0
    for cut in cut_lengths(chunker, data):
        pieces.append(data[offset : offset + cut])
        offset += cut
    return pieces
