"""Tests for all content-defined chunkers.

The invariants every chunker must satisfy:

1. **Lossless**: concatenating the chunks reproduces the input exactly.
2. **Size contract**: every chunk except the stream tail is within
   [min_size, max_size].
3. **Determinism**: the same bytes always split identically.
4. **Streaming equivalence**: splitting via arbitrary block boundaries
   equals splitting the whole buffer.
5. **Boundary-shift robustness** (CDC only): a one-byte prefix insertion
   re-chunks only a bounded prefix of the stream.
"""

import random

import pytest

from repro.chunking import (
    AEChunker,
    FastCDCChunker,
    FixedChunker,
    RabinChunker,
    SeqCDCChunker,
    TTTDChunker,
    chunker_from_spec,
    chunker_spec,
    make_chunker,
)
from repro.chunking.seqcdc import MULTIPLIER, WORD, run_length
from repro.errors import ChunkingError

CDC_CHUNKERS = {
    "rabin": lambda: RabinChunker(min_size=256, avg_size=1024, max_size=4096),
    "tttd": lambda: TTTDChunker(min_size=512, avg_size=1024, max_size=4096),
    "fastcdc": lambda: FastCDCChunker(min_size=256, avg_size=1024, max_size=4096),
    "ae": lambda: AEChunker(avg_size=1024, max_size=4096),
    "seqcdc": lambda: SeqCDCChunker(min_size=256, avg_size=1024, max_size=4096),
}
ALL_CHUNKERS = dict(CDC_CHUNKERS, fixed=lambda: FixedChunker(1024))


def _data(seed: int, size: int) -> bytes:
    return random.Random(seed).getrandbits(8 * size).to_bytes(size, "big")


@pytest.mark.parametrize("name", sorted(ALL_CHUNKERS))
class TestUniversalInvariants:
    def test_lossless(self, name):
        chunker = ALL_CHUNKERS[name]()
        data = _data(1, 100_000)
        assert b"".join(chunker.split(data)) == data

    def test_size_contract(self, name):
        chunker = ALL_CHUNKERS[name]()
        data = _data(2, 80_000)
        pieces = chunker.split(data)
        for piece in pieces[:-1]:
            assert chunker.min_size <= len(piece) <= chunker.max_size
        assert 0 < len(pieces[-1]) <= chunker.max_size

    def test_deterministic(self, name):
        data = _data(3, 50_000)
        a = ALL_CHUNKERS[name]().split(data)
        b = ALL_CHUNKERS[name]().split(data)
        assert a == b

    def test_streaming_equals_whole_buffer(self, name):
        chunker = ALL_CHUNKERS[name]()
        data = _data(4, 60_000)
        whole = chunker.split(data)
        rng = random.Random(5)
        blocks = []
        pos = 0
        while pos < len(data):
            step = rng.randint(1, 7000)
            blocks.append(data[pos : pos + step])
            pos += step
        streamed = list(ALL_CHUNKERS[name]().split_stream(blocks))
        assert streamed == whole

    def test_empty_input(self, name):
        chunker = ALL_CHUNKERS[name]()
        assert chunker.split(b"") == []
        assert list(chunker.split_stream([])) == []

    def test_tiny_input_one_chunk(self, name):
        chunker = ALL_CHUNKERS[name]()
        data = b"xy"
        assert chunker.split(data) == [data]

    def test_chunk_bytes_fingerprints(self, name):
        chunker = ALL_CHUNKERS[name]()
        data = _data(6, 20_000)
        chunks = chunker.chunk_bytes(data)
        assert b"".join(c.data for c in chunks) == data
        assert all(len(c.fingerprint) == 20 for c in chunks)

    def test_chunk_stream_builds_backup_stream(self, name):
        chunker = ALL_CHUNKERS[name]()
        data = _data(7, 10_000)
        stream = chunker.chunk_stream([data], tag="t")
        assert stream.tag == "t"
        assert stream.logical_size == len(data)


@pytest.mark.parametrize("name", sorted(CDC_CHUNKERS))
class TestContentDefinedBehaviour:
    def test_average_size_in_ballpark(self, name):
        chunker = CDC_CHUNKERS[name]()
        data = _data(8, 400_000)
        pieces = chunker.split(data)
        average = len(data) / len(pieces)
        # Within a generous 3x band around the target average.
        assert chunker.avg_size / 3 <= average <= chunker.avg_size * 3

    def test_boundary_shift_robustness(self, name):
        """Inserting a prefix byte must not re-chunk the whole stream."""
        chunker = CDC_CHUNKERS[name]()
        data = _data(9, 200_000)
        original = set(chunker.split(data))
        shifted = set(chunker.split(b"!" + data))
        shared = len(original & shifted)
        # CDC re-synchronises: the vast majority of chunks survive the shift.
        assert shared >= len(original) * 0.5

    def test_local_edit_changes_few_chunks(self, name):
        chunker = CDC_CHUNKERS[name]()
        data = bytearray(_data(10, 200_000))
        original = chunker.split(bytes(data))
        data[100_000:100_010] = b"0123456789"
        edited = chunker.split(bytes(data))
        changed = len(set(edited) - set(original))
        assert changed <= 6  # an edit touches only the chunks around it


class TestFixedChunker:
    def test_everything_shifts_on_insert(self):
        """The boundary-shift problem fixed-size chunking suffers from."""
        chunker = FixedChunker(1024)
        data = _data(11, 50_000)
        original = set(chunker.split(data))
        shifted = set(chunker.split(b"!" + data))
        assert len(original & shifted) <= 2

    def test_exact_sizes(self):
        pieces = FixedChunker(100).split(b"a" * 250)
        assert [len(p) for p in pieces] == [100, 100, 50]

    def test_rejects_bad_size(self):
        with pytest.raises(ChunkingError):
            FixedChunker(0)


class TestConfigurationValidation:
    def test_ordering_enforced(self):
        with pytest.raises(ChunkingError):
            RabinChunker(min_size=4096, avg_size=1024, max_size=8192)

    def test_rabin_requires_power_of_two_average(self):
        with pytest.raises(ChunkingError):
            RabinChunker(min_size=256, avg_size=1000, max_size=4096)

    def test_fastcdc_requires_power_of_two_average(self):
        with pytest.raises(ChunkingError):
            FastCDCChunker(min_size=256, avg_size=1000, max_size=4096)

    def test_window_must_fit_min_size(self):
        with pytest.raises(ChunkingError):
            RabinChunker(min_size=16, avg_size=1024, max_size=4096, window=48)

    def test_tttd_divisors_positive(self):
        chunker = TTTDChunker(min_size=512, avg_size=1024, max_size=4096)
        assert chunker.main_divisor >= 2
        assert chunker.backup_divisor >= 2
        assert chunker.backup_divisor < chunker.main_divisor


class TestMakeChunker:
    @pytest.mark.parametrize("name", ["fixed", "rabin", "tttd", "fastcdc", "ae", "seqcdc"])
    def test_factory_names(self, name):
        assert make_chunker(name) is not None

    def test_factory_is_case_insensitive(self):
        assert isinstance(make_chunker("FastCDC"), FastCDCChunker)

    def test_factory_rejects_unknown(self):
        with pytest.raises(ValueError):
            make_chunker("nope")

    def test_factory_forwards_kwargs(self):
        chunker = make_chunker("fixed", size=2048)
        assert chunker.size == 2048


class TestSeedIsolation:
    def test_different_seeds_cut_differently(self):
        data = _data(12, 100_000)
        a = FastCDCChunker(seed=1).split(data)
        b = FastCDCChunker(seed=2).split(data)
        assert a != b

    def test_same_seed_cuts_identically(self):
        data = _data(13, 100_000)
        assert TTTDChunker(seed=9).split(data) == TTTDChunker(seed=9).split(data)


def _rule_cuts(data: bytes, min_size: int, max_size: int, run: int):
    """SeqCDC's cut lengths straight from its definition: cut after the
    first chunk-relative ``p >= min_size`` whose keys ``p - run .. p``
    strictly increase, else at ``max_size``, else at the end.  The key of
    ``q`` is the little-endian word of bytes ``q - 7 .. q`` times
    ``MULTIPLIER``, modulo 2**64."""

    def key(q):
        return int.from_bytes(data[q - WORD + 1 : q + 1], "little") * MULTIPLIER % 2**64

    cuts, start = [], 0
    while start < len(data):
        limit = min(len(data) - start, max_size)
        cut = limit
        for p in range(min_size, limit):
            keys = [key(start + q) for q in range(p - run, p + 1)]
            if all(a < b for a, b in zip(keys, keys[1:])):
                cut = p + 1
                break
        cuts.append(cut)
        start += cut
    return cuts


def _low_entropy(kind: str, size: int) -> bytes:
    rng = random.Random(kind)
    if kind == "four_symbols":
        return bytes(rng.randrange(4) for _ in range(size))
    if kind == "hex":
        return rng.randbytes(size // 2).hex().encode()
    rows = (",".join(str(rng.randrange(100_000)) for _ in range(8)) for _ in range(size // 40))
    return "\n".join(rows).encode()[:size]  # numeric CSV


class TestSeqCDCRule:
    """The scalar ``next_cut`` is the oracle the vector kernel is held to;
    here it is held to the rule as written."""

    @pytest.mark.parametrize(
        "contract", [(64, 256, 1024), (256, 1024, 4096), (100, 101, 300), (3648, 8192, 65536)]
    )
    @pytest.mark.parametrize("kind", ["random", "low_entropy"])
    def test_cuts_follow_the_rule(self, contract, kind):
        chunker = SeqCDCChunker(*contract)
        rng = random.Random(sum(contract))
        if kind == "random":
            data = rng.randbytes(150_000)
        else:
            data = bytes(rng.randrange(16) for _ in range(150_000))
        cuts = [len(piece) for piece in chunker.split(data)]
        assert cuts == _rule_cuts(data, chunker.min_size, chunker.max_size, chunker.run)

    def test_run_length_is_derived_from_the_contract(self):
        assert run_length(3648, 8192) == 6  # 7! = 5040 is nearest 4544
        assert SeqCDCChunker().run == 6
        assert run_length(64, 256) == 4  # 5! = 120 beats 6! = 720 for 192
        assert run_length(100, 101) == 1  # avg == min + 1: the shortest run

    @pytest.mark.parametrize("kind", ["four_symbols", "hex", "numeric_csv"])
    def test_few_distinct_bytes_still_cut_like_random_data(self, kind):
        """Four symbols and numeric CSV hold no run of seven strictly
        increasing bytes (hex rarely), so a byte-comparing rule would cut
        them at or near ``max_size``; keys over 8-byte words keep the
        random-data mean (about ``min_size + 5.8 KiB`` by default)."""
        chunker = SeqCDCChunker()
        cuts = [len(piece) for piece in chunker.split(_low_entropy(kind, 400_000))]
        assert max(cuts) < chunker.max_size
        assert 6_000 < sum(cuts) / len(cuts) < 14_000

    def test_constant_bytes_cut_at_max_size(self):
        chunker = SeqCDCChunker(64, 256, 1024)
        assert [len(p) for p in chunker.split(bytes(5000))] == [1024] * 4 + [904]

    def test_streaming_waits_for_the_run_to_be_decidable(self):
        chunker = SeqCDCChunker(64, 256, 1024)
        assert chunker.next_cut(memoryview(bytes(500)), eof=False) is None
        assert chunker.next_cut(memoryview(bytes(64)), eof=True) == 64

    def test_degenerate_contract_streams_fixed_size_chunks(self):
        chunker = SeqCDCChunker(512, 512, 512)
        data = _data(15, 5000)
        expected = [data[i : i + 512] for i in range(0, len(data), 512)]
        assert chunker.split(data) == expected
        blocks = [data[i : i + 700] for i in range(0, len(data), 700)]
        assert list(chunker.split_stream(blocks)) == expected

    @pytest.mark.parametrize(
        "contract", [(4, 5000, 65536), (6, 5046, 65536), (1, 2, 8), (12, 5052, 65536)]
    )
    def test_rejects_a_run_that_reads_before_the_chunk(self, contract):
        # The run ending at min_size reads L + 7 bytes before it: all but
        # the last contract also have L >= min_size.
        assert run_length(*contract[:2]) + WORD - 1 > contract[0]
        with pytest.raises(ChunkingError):
            SeqCDCChunker(*contract)
        assert SeqCDCChunker(13, 5053, 65536).run == 6  # L + 7 == min_size


class TestChunkerSpec:
    @pytest.mark.parametrize(
        "chunker", [SeqCDCChunker(), SeqCDCChunker(512, 2048, 8192), FastCDCChunker(),
                    FastCDCChunker(256, 1024, 4096)]
    )
    def test_round_trip_cuts_alike(self, chunker):
        spec = chunker_spec(chunker)
        clone = chunker_from_spec(spec)
        assert type(clone) is type(chunker) and chunker_spec(clone) == spec
        data = _data(14, 80_000)
        assert clone.split(data) == chunker.split(data)

    @pytest.mark.parametrize(
        "chunker", [FastCDCChunker(seed=1), FastCDCChunker(normalization=1), TTTDChunker()]
    )
    def test_a_chunker_the_spec_cannot_name_is_refused(self, chunker):
        with pytest.raises(ValueError):
            chunker_spec(chunker)

    def test_unknown_name_is_refused(self):
        with pytest.raises(ValueError):
            chunker_from_spec({"name": "tttd", "min_size": 1, "avg_size": 2, "max_size": 4})
