"""Tests for the segment-contract ingest engine (src/repro/engine/).

Covers the vectorized FastCDC and SeqCDC kernels' exact equivalence with
the scalar chunkers and the segment framing every backup chunks through.
"""

import contextlib
import random
from multiprocessing import shared_memory

import pytest
from hypothesis import given, settings, strategies as st

from repro.chunking import FastCDCChunker, Fingerprinter, SeqCDCChunker
from repro.chunking.stream import LazyBackupStream
from repro.chunking.vectorized import (
    _MIN_VECTOR_BYTES,
    _TILE,
    HAVE_NUMPY,
    cut_lengths,
    split_fast,
)
from repro.engine import SEGMENT_BYTES, iter_segments
from repro.pipeline import SCHEMES, BackupEngine, build_scheme
from repro.units import KiB

CONTAINER = 64 * KiB


def _chunker():
    return FastCDCChunker(min_size=512, avg_size=2048, max_size=8 * KiB)


# ----------------------------------------------------------------------
# Vectorized FastCDC kernel
# ----------------------------------------------------------------------
def _kernel_cuts(chunker, data):
    """``cut_lengths`` on a buffer the vector kernel takes (when numpy is
    importable; without it this is the fallback, which must agree too)."""
    assert type(chunker) is FastCDCChunker and len(data) >= _MIN_VECTOR_BYTES
    return cut_lengths(chunker, data)


def _scalar_cuts(chunker, data):
    return [len(piece) for piece in chunker.split(data)]


def _low_entropy(seed, size, period=None):
    """A 4-symbol alphabet, optionally repeating with a short period."""
    rng = random.Random(seed)
    if period is None:
        return bytes(rng.choices(b"acgt", k=size))
    unit = bytes(rng.choices(b"acgt", k=period))
    return (unit * (size // period + 1))[:size]


@st.composite
def _size_contracts(draw):
    """``(min, avg, max)`` with the edges the batched warm-up must cover."""
    avg = 1 << draw(st.integers(5, 12))
    shape = draw(st.sampled_from(["plain", "warmup_spans_avg", "fixed", "max_in_warmup"]))
    if shape == "fixed":
        return avg, avg, avg
    if shape == "warmup_spans_avg":  # min + 63 >= avg: both masks inside the warm-up
        low = draw(st.integers(max(1, avg - 63), avg))
        return low, avg, draw(st.integers(avg, 8 * avg))
    if shape == "max_in_warmup":  # the forced cut truncates every warm-up
        return avg, avg, avg + draw(st.integers(1, 62))
    return draw(st.integers(1, avg)), avg, draw(st.integers(avg, 8 * avg))


class TestVectorizedCuts:
    """Oracle: the scalar ``chunker.split``.  Everything goes through the
    public ``cut_lengths``, so the same tests run the ``HAVE_NUMPY = False``
    fallback when numpy cannot be imported (CI has a step that does)."""

    @pytest.mark.skipif(not HAVE_NUMPY, reason="numpy unavailable")
    def test_cut_lengths_dispatches_to_the_one_kernel(self, monkeypatch):
        from repro.chunking import vectorized

        monkeypatch.setattr(vectorized, "vector_cuts", lambda chunker, data: ["kernel"])
        assert cut_lengths(_chunker(), bytes(_MIN_VECTOR_BYTES)) == ["kernel"]
        assert cut_lengths(_chunker(), bytes(_MIN_VECTOR_BYTES - 1)) != ["kernel"]

    @pytest.mark.parametrize(
        "min_size,avg_size,max_size",
        [(512, 2048, 8192), (64, 256, 1024), (2048, 8192, 65536), (1, 4096, 16384)],
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cuts_match_scalar(self, min_size, avg_size, max_size, seed):
        chunker = FastCDCChunker(min_size, avg_size, max_size)
        data = random.Random(seed).randbytes(200_000 + seed * 7919)
        assert _kernel_cuts(chunker, data) == _scalar_cuts(chunker, data)

    # hypothesis itself cannot run with sys.modules["numpy"] = None (it looks
    # numpy up there), and without the kernel the property is a tautology.
    @pytest.mark.skipif(not HAVE_NUMPY, reason="numpy unavailable")
    @settings(max_examples=60, deadline=None)
    @given(
        contract=_size_contracts(),
        normalization=st.integers(0, 3),
        size=st.integers(_MIN_VECTOR_BYTES, 40_000),
        seed=st.integers(0, 2**32),
        period=st.sampled_from([0, None, 3, 64, 1000]),
    )
    def test_any_size_contract_matches_scalar(self, contract, normalization, size, seed, period):
        chunker = FastCDCChunker(*contract, normalization=normalization)
        data = (random.Random(seed).randbytes(size) if period == 0
                else _low_entropy(seed, size, period))
        assert _kernel_cuts(chunker, data) == _scalar_cuts(chunker, data)

    def test_low_entropy_forces_max_cuts(self):
        chunker = _chunker()
        data = b"\x00" * 100_000  # no mask hit: every cut is max_size
        assert _kernel_cuts(chunker, data) == _scalar_cuts(chunker, data)

    @pytest.mark.parametrize("period", [None, 24])
    def test_cuts_inside_the_warmup_restart_the_chain(self, period):
        # Small average, few symbols: many chunks cut within 63 bytes of
        # min_size, where only the batched warm-up check can find them and
        # every cut it finds moves all later chunk starts.
        chunker = FastCDCChunker(64, 256, 1024)
        data = _low_entropy(5, 300_000, period)
        expected = _scalar_cuts(chunker, data)
        assert any(64 < cut <= 64 + 63 for cut in expected)
        assert _kernel_cuts(chunker, data) == expected

    @pytest.mark.parametrize("delta", [0, 1, -1, 63, -63, 64, -64])
    def test_buffer_sizes_around_a_tile(self, delta):
        chunker = _chunker()
        data = random.Random(delta).randbytes(_TILE + delta)
        assert _kernel_cuts(chunker, data) == _scalar_cuts(chunker, data)

    def test_full_segment_matches_scalar(self):
        chunker = FastCDCChunker()
        data = random.Random(4).randbytes(SEGMENT_BYTES)
        assert _kernel_cuts(chunker, data) == _scalar_cuts(chunker, data)

    @pytest.mark.parametrize("tail", [1, 511, 512, 513, 512 + 62, 512 + 63, 512 + 64])
    def test_tail_shorter_than_a_warmup(self, tail):
        # The last chunk starts ``tail`` bytes before the end: at or below
        # min_size (no hashing), inside the warm-up (truncated row), just
        # past it.  Zeros never hit a mask, so every earlier cut is max_size.
        chunker = _chunker()
        data = bytes(3 * chunker.max_size) + random.Random(tail).randbytes(tail)
        assert _kernel_cuts(chunker, data) == _scalar_cuts(chunker, data)

    @pytest.mark.parametrize("size", [65_536, 65_537, 70_001, 131_071])
    def test_tail_sizes(self, size):
        chunker = _chunker()
        data = random.Random(size).randbytes(size)
        assert split_fast(chunker, data) == chunker.split(data)

    def test_degenerate_fixed_size_contract(self):
        chunker = FastCDCChunker(4096, 4096, 4096)
        data = random.Random(9).randbytes(100_000)
        assert _kernel_cuts(chunker, data) == _scalar_cuts(chunker, data)

    @pytest.mark.parametrize("wrap", [memoryview, bytearray, lambda d: memoryview(bytearray(d))])
    def test_any_buffer_type_cuts_like_bytes(self, wrap):
        chunker = _chunker()
        data = random.Random(3).randbytes(150_000)
        assert cut_lengths(chunker, wrap(data)) == _kernel_cuts(chunker, data)
        assert split_fast(chunker, wrap(data)) == chunker.split(data)

    def test_small_buffer_falls_back_to_scalar(self):
        chunker = _chunker()
        data = random.Random(1).randbytes(_MIN_VECTOR_BYTES - 1)
        assert split_fast(chunker, data) == chunker.split(data)

    def test_subclass_falls_back_to_scalar(self):
        class Custom(FastCDCChunker):
            pass

        chunker = Custom(512, 2048, 8192)
        data = random.Random(2).randbytes(100_000)
        assert split_fast(chunker, data) == chunker.split(data)


# ----------------------------------------------------------------------
# Vectorized SeqCDC kernel
# ----------------------------------------------------------------------
def _seq_data(kind, size, seed=0):
    rng = random.Random(seed)
    if kind == "random":
        return rng.randbytes(size)
    if kind == "low_entropy":
        return bytes(rng.randrange(4) for _ in range(size))
    if kind == "ramp":  # period 256: the same keys, so the same cuts, each lap
        return (bytes(range(256)) * (size // 256 + 1))[:size]
    return bytes([rng.randrange(256)]) * size  # constant


def _as_buffer(wrap, data, stack):
    """``data`` as ``bytes``, a ``memoryview`` or a shared-memory slab view."""
    if wrap == "bytes":
        return data
    if wrap == "memoryview":
        return memoryview(data)
    slab = shared_memory.SharedMemory(create=True, size=max(1, len(data)))
    stack.callback(slab.unlink)
    stack.callback(slab.close)
    slab.buf[: len(data)] = data
    view = slab.buf[: len(data)]
    stack.callback(view.release)
    return view


def _seq_lengths(chunker):
    """Buffer lengths around every size the kernel or its walk branches on."""
    anchors = [chunker.min_size, chunker.max_size, _MIN_VECTOR_BYTES,
               3 * chunker.max_size + chunker.min_size, SEGMENT_BYTES]
    return [anchor + delta for anchor in anchors for delta in (-1, 0, 1)]


SEQ_CONTRACTS = [(3648, 8192, 65536), (512, 2048, 8192), (64, 256, 1024)]


class TestSeqCDCCuts:
    """Oracle: the scalar SeqCDC ``chunker.split``, through the public
    ``cut_lengths``, so these run the ``HAVE_NUMPY = False`` fallback too
    when numpy cannot be imported (CI has a step that does)."""

    @pytest.mark.skipif(not HAVE_NUMPY, reason="numpy unavailable")
    def test_cut_lengths_dispatches_to_the_seqcdc_kernel(self, monkeypatch):
        from repro.chunking import vectorized

        monkeypatch.setattr(vectorized, "seq_cuts", lambda chunker, data: ["kernel"])
        assert cut_lengths(SeqCDCChunker(), bytes(_MIN_VECTOR_BYTES)) == ["kernel"]
        assert cut_lengths(SeqCDCChunker(), bytes(_MIN_VECTOR_BYTES - 1)) != ["kernel"]

    @pytest.mark.parametrize("kind", ["random", "low_entropy", "ramp", "constant"])
    @pytest.mark.parametrize("wrap", ["bytes", "memoryview", "slab"])
    def test_cuts_match_scalar(self, kind, wrap):
        chunker = SeqCDCChunker()
        data = _seq_data(kind, 300_001, seed=len(kind))
        with contextlib.ExitStack() as stack:
            buffer = _as_buffer(wrap, data, stack)
            assert cut_lengths(chunker, buffer) == _scalar_cuts(chunker, data)
        assert split_fast(chunker, data) == chunker.split(data)

    def test_full_segment_matches_scalar(self):
        chunker = SeqCDCChunker()
        data = random.Random(4).randbytes(SEGMENT_BYTES)
        assert cut_lengths(chunker, data) == _scalar_cuts(chunker, data)

    def test_subclass_falls_back_to_scalar(self):
        class Custom(SeqCDCChunker):
            pass

        chunker = Custom()
        data = random.Random(2).randbytes(100_000)
        assert split_fast(chunker, data) == chunker.split(data)

    # hypothesis cannot run with numpy unimportable (see TestVectorizedCuts).
    @pytest.mark.skipif(not HAVE_NUMPY, reason="numpy unavailable")
    @settings(max_examples=40, deadline=None)
    @given(
        contract=st.sampled_from(SEQ_CONTRACTS),
        kind=st.sampled_from(["random", "low_entropy", "ramp", "constant"]),
        wrap=st.sampled_from(["bytes", "memoryview", "slab"]),
        pick=st.integers(0, 14),
        seed=st.integers(0, 2**32),
    )
    def test_any_input_matches_scalar(self, contract, kind, wrap, pick, seed):
        chunker = SeqCDCChunker(*contract)
        data = _seq_data(kind, _seq_lengths(chunker)[pick], seed)
        with contextlib.ExitStack() as stack:
            buffer = _as_buffer(wrap, data, stack)
            assert cut_lengths(chunker, buffer) == _scalar_cuts(chunker, data)


# ----------------------------------------------------------------------
# What the ingest path is built from
# ----------------------------------------------------------------------
class TestIngestPrimitives:
    def test_iter_segments_independent_of_block_framing(self):
        segment = 64 * KiB
        payload = random.Random(7).randbytes(5 * segment + 123)
        framings = [
            [payload],
            [payload[i : i + 1000] for i in range(0, len(payload), 1000)],
            [payload[:1], payload[1:segment], payload[segment:]],
        ]
        segmented = [list(iter_segments(f, segment)) for f in framings]
        assert segmented[0] == segmented[1] == segmented[2]
        assert all(len(s) == segment for s in segmented[0][:-1])
        assert b"".join(segmented[0]) == payload

    def test_lazy_stream_is_single_pass(self):
        chunk = Fingerprinter().chunk(b"x" * 4096)
        stream = LazyBackupStream(iter([chunk]), tag="v1")
        assert list(stream) == [chunk]
        with pytest.raises(RuntimeError):
            iter(stream)
        fresh = LazyBackupStream(iter([chunk]))
        with pytest.raises(TypeError):
            len(fresh)
        with pytest.raises(RuntimeError):
            fresh.chunks

    def test_fingerprinter_is_picklable(self):
        import pickle

        fp = Fingerprinter("sha256", width=16)
        clone = pickle.loads(pickle.dumps(fp))
        assert clone.fingerprint(b"abc") == fp.fingerprint(b"abc")


class TestEngineEquivalence:
    def test_every_scheme_satisfies_protocol(self):
        for name in SCHEMES:
            assert isinstance(build_scheme(name, container_size=CONTAINER), BackupEngine), name
