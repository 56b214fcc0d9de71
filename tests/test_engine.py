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

from repro.chunking import FastCDCChunker, Fingerprinter
from repro.chunking.stream import LazyBackupStream
from repro.chunking.vectorized import HAVE_NUMPY, split_fast, vector_cuts
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
@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy unavailable")
class TestVectorizedCuts:
    @pytest.mark.parametrize(
        "min_size,avg_size,max_size",
        [(512, 2048, 8192), (64, 256, 1024), (2048, 8192, 65536), (1, 4096, 16384)],
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cuts_match_scalar(self, min_size, avg_size, max_size, seed):
        chunker = FastCDCChunker(min_size, avg_size, max_size)
        data = random.Random(seed).randbytes(200_000 + seed * 7919)
        expected = [len(p) for p in chunker.split(data)]
        assert vector_cuts(chunker, data) == expected

    def test_low_entropy_forces_max_cuts(self):
        chunker = _chunker()
        data = b"\x00" * 100_000  # no mask hit: every cut is max_size
        assert vector_cuts(chunker, data) == [len(p) for p in chunker.split(data)]

    @pytest.mark.parametrize("size", [65_536, 65_537, 70_001, 131_071])
    def test_tail_sizes(self, size):
        chunker = _chunker()
        data = random.Random(size).randbytes(size)
        assert split_fast(chunker, data) == chunker.split(data)

    def test_degenerate_fixed_size_contract(self):
        chunker = FastCDCChunker(4096, 4096, 4096)
        data = random.Random(9).randbytes(100_000)
        assert vector_cuts(chunker, data) == [len(p) for p in chunker.split(data)]

    def test_small_buffer_falls_back_to_scalar(self):
        chunker = _chunker()
        data = random.Random(1).randbytes(10_000)
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
            results = pool.chunk_blocks(blocks)
            pooled = [c for c in next(results)]  # pool is live and mid-stream
            for pid in pool.worker_pids():
                os.kill(pid, signal.SIGKILL)
            for batch in results:
                pooled.extend(batch)
        assert [(c.fingerprint, c.size, c.data) for c in pooled] == [
            (c.fingerprint, c.size, c.data) for c in _inline_chunks(blocks)
        ]
        assert metrics.snapshot()["counters"]["ingest.worker_respawns"] >= 1

    def test_retry_budget_exhaustion_raises_typed_error(self):
        blocks = _blocks(seed=31, count=20)
        with _pool(2, "process", max_retries=0) as pool:
            pool.warm()
            results = pool.chunk_blocks(blocks)
            next(results)
            for pid in pool.worker_pids():
                os.kill(pid, signal.SIGKILL)
            with pytest.raises(IngestPoolError):
                for _ in results:
                    pass

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
