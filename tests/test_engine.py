"""Tests for the segment-contract ingest engine (src/repro/engine/).

Covers the vectorized FastCDC kernel's exact equivalence with the scalar
chunker, the shared chunking pool's determinism, crash-safe respawn and
slab hygiene, and pooled-vs-serial repository equivalence (identical
recipes, containers and reports at any worker count).
"""

import os
import random
import signal
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.chunking import FastCDCChunker, Fingerprinter
from repro.chunking.stream import LazyBackupStream
from repro.chunking.vectorized import (
    _MIN_VECTOR_BYTES,
    _TILE,
    HAVE_NUMPY,
    cut_lengths,
    split_fast,
)
from repro.engine import (
    IngestPoolError,
    SharedChunkPool,
    chunk_segment,
    iter_segments,
    sweep_orphaned_segments,
)
from repro.observability import MetricsRegistry
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
        from repro.engine import SEGMENT_BYTES

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
# What the ingest path is built from
# ----------------------------------------------------------------------
class TestIngestPrimitives:
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


# ----------------------------------------------------------------------
# Shared daemon-lifetime chunking pool
# ----------------------------------------------------------------------
SEGMENT = 64 * KiB  # small segments so a few hundred KiB exercises many handoffs


def _pool(workers, executor, metrics=None, **kwargs):
    return SharedChunkPool(
        workers,
        executor=executor,
        chunker=_chunker(),
        segment_bytes=SEGMENT,
        metrics=metrics if metrics is not None else MetricsRegistry(),
        **kwargs,
    )


def _inline_chunks(blocks):
    chunker, fp = _chunker(), Fingerprinter()
    return [
        chunk
        for segment in iter_segments(blocks, SEGMENT)
        for chunk in chunk_segment(chunker, fp, segment)
    ]


def _blocks(seed=11, count=12, size=37_000):
    rng = random.Random(seed)
    return [rng.randbytes(size) for _ in range(count)]


def _killing_workers(pool, blocks, after):
    """Yield ``blocks``; before block ``after``, SIGKILL every pool worker
    and go on only once each is dead.

    The pool pulls blocks from inside ``chunk_segments``, so at the kill
    the segments cut from the earlier blocks are submitted and undrained
    and the rest of the stream is not submitted yet -- both kinds exist by
    construction, whatever the kernel's speed.  ``WNOWAIT`` leaves the exit
    status for the executor's own join.
    """
    for index, block in enumerate(blocks):
        if index == after:
            pids = pool.worker_pids()
            assert pids
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
            for pid in pids:
                try:
                    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
                except ChildProcessError:
                    pass  # the executor reaped it first: dead either way
        yield block


class TestSharedChunkPool:
    def test_iter_segments_independent_of_block_framing(self):
        payload = random.Random(7).randbytes(5 * SEGMENT + 123)
        framings = [
            [payload],
            [payload[i : i + 1000] for i in range(0, len(payload), 1000)],
            [payload[:1], payload[1:SEGMENT], payload[SEGMENT:]],
        ]
        segmented = [list(iter_segments(f, SEGMENT)) for f in framings]
        assert segmented[0] == segmented[1] == segmented[2]
        assert all(len(s) == SEGMENT for s in segmented[0][:-1])
        assert b"".join(segmented[0]) == payload

    @pytest.mark.parametrize(
        "workers,executor", [(1, "process"), (4, "process"), (2, "thread")]
    )
    def test_pool_matches_inline_chunking(self, workers, executor):
        blocks = _blocks()
        with _pool(workers, executor) as pool:
            pooled = [c for batch in pool.chunk_blocks(blocks) for c in batch]
        inline = _inline_chunks(blocks)
        assert [(c.fingerprint, c.size) for c in pooled] == [
            (c.fingerprint, c.size) for c in inline
        ]
        assert b"".join(c.data for c in pooled) == b"".join(blocks)

    def test_pool_records_stage_metrics(self):
        metrics = MetricsRegistry()
        blocks = _blocks(count=6)
        with _pool(2, "process", metrics=metrics) as pool:
            list(pool.chunk_blocks(blocks))
        snap = metrics.snapshot()
        assert snap["counters"]["ingest.segments_total"] == len(
            list(iter_segments(blocks, SEGMENT))
        )
        assert snap["gauges"]["ingest.queue_depth"] == 0  # all drained
        assert "ingest.chunk_seconds" in snap["histograms"]
        assert "ingest.handoff_seconds" in snap["histograms"]

    def test_killed_worker_respawns_and_output_is_identical(self):
        metrics = MetricsRegistry()
        blocks = _blocks(seed=23, count=20)
        with _pool(2, "process", metrics=metrics) as pool:
            pool.warm()
            pooled = [
                c
                for batch in pool.chunk_blocks(_killing_workers(pool, blocks, after=8))
                for c in batch
            ]
        assert [(c.fingerprint, c.size, c.data) for c in pooled] == [
            (c.fingerprint, c.size, c.data) for c in _inline_chunks(blocks)
        ]
        # One death is one respawn, whether the pool first met it at a
        # submit or at a drain (it used to count both and overrun a budget
        # of one in the submit-first order).
        assert metrics.snapshot()["counters"]["ingest.worker_respawns"] == 1

    def test_retry_budget_exhaustion_raises_typed_error(self):
        blocks = _blocks(seed=31, count=20)
        with _pool(2, "process", max_retries=0) as pool:
            pool.warm()
            with pytest.raises(IngestPoolError):
                for _ in pool.chunk_blocks(_killing_workers(pool, blocks, after=8)):
                    pass
            # The aborted backup gave every slab back, including the one it
            # was holding if the break surfaced at a submit.
            assert pool._free.qsize() == pool.queue_depth

    def test_closed_pool_rejects_work_and_unlinks_slabs(self):
        pool = _pool(1, "process")
        names = [slab.shm.name for slab in pool._slabs]
        assert names
        pool.close()
        pool.close()  # idempotent
        if os.path.isdir("/dev/shm"):
            for name in names:
                assert not os.path.exists(os.path.join("/dev/shm", name))
        with pytest.raises(IngestPoolError):
            list(pool.chunk_blocks([b"x"]))

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            SharedChunkPool(0)
        with pytest.raises(ValueError):
            SharedChunkPool(1, executor="fiber")
        with pytest.raises(ValueError):
            SharedChunkPool(1, queue_depth=0)
        with pytest.raises(ValueError):
            SharedChunkPool(1, segment_bytes=0)

    def test_orphan_sweep_removes_only_dead_owners(self, tmp_path):
        dead = subprocess.Popen([sys.executable, "-c", "pass"])
        dead.wait()
        base = str(tmp_path)
        orphan = f"hidestore-ing-{dead.pid}-0"
        mine = f"hidestore-ing-{os.getpid()}-1"
        stranger = "unrelated-file"
        unparsable = "hidestore-ing-notapid-2"
        for name in (orphan, mine, stranger, unparsable):
            with open(os.path.join(base, name), "wb") as handle:
                handle.write(b"slab")
        metrics = MetricsRegistry()
        assert sweep_orphaned_segments(metrics, base=base) == 1
        assert not os.path.exists(os.path.join(base, orphan))
        for kept in (mine, stranger, unparsable):
            assert os.path.exists(os.path.join(base, kept))
        assert metrics.snapshot()["counters"]["ingest.orphaned_segments_swept"] == 1
        assert sweep_orphaned_segments(metrics, base=str(tmp_path / "missing")) == 0


class TestRepositoryPoolDeterminism:
    """The determinism contract at the repository layer: serial inline
    ingest, a 1-worker pool, an N-worker pool and a thread pool must all
    produce identical reports and byte-identical restores."""

    @pytest.mark.parametrize(
        "workers,executor", [(1, "process"), (4, "process"), (2, "thread")]
    )
    def test_pooled_repository_matches_serial(self, workers, executor, tmp_path):
        from repro.repository import LocalRepository

        # Default-config pool: the serial inline path chunks with the
        # default chunker at the default segment size, so equivalence needs
        # the pool on the same configuration.
        rng = random.Random(41)
        size = 5 * 1024 * 1024  # > SEGMENT_BYTES: every backup spans segments
        payloads = [rng.randbytes(size), rng.randbytes(size)]
        payloads[1] = payloads[0][: size // 2] + payloads[1][: size - size // 2]

        def run(root, pool):
            repo = LocalRepository(root, ingest_pool=pool, metrics=MetricsRegistry())
            reports, restored = [], []
            for i, payload in enumerate(payloads):
                blocks = [payload[j : j + 65_536] for j in range(0, len(payload), 65_536)]
                plan = [("stream.bin", len(payload))]
                reports.append(repo.backup_blocks(iter(blocks), plan, tag=f"v{i}"))
                _plan_rows, data = repo.restore(i + 1)
                restored.append(b"".join(bytes(b) for b in data))
            return reports, restored

        serial = run(str(tmp_path / "serial"), None)
        with SharedChunkPool(
            workers, executor=executor, metrics=MetricsRegistry()
        ) as pool:
            pooled = run(str(tmp_path / f"pool-{executor}{workers}"), pool)
        assert pooled == serial
        assert pooled[0][1]["duplicate_chunks"] > 0  # the churn actually deduped
