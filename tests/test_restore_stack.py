"""The unified restore stack: scheduler plans, prefetched execution, knobs.

Covers the restore-side pipeline end to end:

* scheduler layer — FAA's native planner and the simulated planner derived
  from any :class:`RestoreAlgorithm` produce plans whose execution is
  byte-identical to the algorithm and billed identically;
* pipelined engine — parallel restores match serial ones byte for byte
  (local and over the daemon) at every worker/readahead combination;
* streaming ``materialize`` — bounded memory, ``.part`` + rename, no
  partial files after a mid-stream failure;
* ``verify`` — corrupted container payloads raise typed errors instead of
  restoring silently-wrong bytes;
* partial restore — one file out of a snapshot, local and remote;
* daemon failure path — a restore that dies mid-stream surfaces a typed
  ERROR frame and leaves the connection pool and target directory clean.
"""

from __future__ import annotations

import os
import random
import tracemalloc

import pytest

from repro.chunking.fingerprint import Fingerprinter
from repro.chunking.stream import BackupStream, Chunk
from repro.client import RemoteRepository
from repro.engine.restore import restore_stream
from repro.errors import ReproError, RestoreError, VersionNotFoundError
from repro.pipeline.schemes import build_baseline
from repro.repository import LocalRepository, materialize, read_tree
from repro.restore import (
    ALACCRestore,
    ChunkCacheRestore,
    ContainerCacheRestore,
    FAARestore,
    FAAScheduler,
    HotSetRestore,
    OptimalContainerCacheRestore,
    execute_plan,
)
from repro.server import DaemonThread
from repro.units import KiB, MiB


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def payload_stream(seed: int, pool: list, n: int, tag: str) -> BackupStream:
    """Chunks drawn from a shared payload pool (cross-version duplicates)."""
    rng = random.Random(seed)
    fingerprinter = Fingerprinter()
    chunks = []
    for _ in range(n):
        if rng.random() < 0.6:
            data = pool[rng.randrange(len(pool))]
        else:
            data = rng.randbytes(rng.randrange(1500, 4000))
        chunks.append(fingerprinter.chunk(data))
    return BackupStream(chunks, tag=tag)


@pytest.fixture
def fragmented_system():
    """A traditional system with many small containers and real dedup."""
    rng = random.Random(3)
    pool = [rng.randbytes(rng.randrange(1500, 4000)) for _ in range(120)]
    system = build_baseline(container_size=32 * KiB)
    for v in range(3):
        system.backup(payload_stream(100 + v, pool, 600, tag=f"v{v}"))
    return system


def make_tree(base, files):
    os.makedirs(base, exist_ok=True)
    for rel, payload in files.items():
        path = os.path.join(base, rel)
        os.makedirs(os.path.dirname(path) or base, exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(payload)
    return read_tree(base)


def tree_bytes(base):
    return {rel: open(path, "rb").read() for rel, path in read_tree(base)}


def synthetic_files(seed, count=4, size=40_000):
    rng = random.Random(seed)
    return {f"dir{i % 2}/file{i}.bin": rng.randbytes(size) for i in range(count)}


ALGORITHMS = [
    FAARestore,
    ALACCRestore,
    ChunkCacheRestore,
    ContainerCacheRestore,
    HotSetRestore,
    OptimalContainerCacheRestore,
]


# ----------------------------------------------------------------------
# Scheduler layer
# ----------------------------------------------------------------------
class TestSchedulerLayer:
    def test_faa_plan_invariants(self, fragmented_system):
        entries = fragmented_system.resolved_restore_range(
            fragmented_system.version_ids()[-1]
        )
        emitted = []
        for span in FAAScheduler().plan(entries):
            for read in span.reads:
                for slot in read.slots:
                    assert slot >= len(emitted), "read serves an already-emitted slot"
            emitted.extend(span.emit)
        assert emitted == list(range(len(entries)))

    @pytest.mark.parametrize("algorithm_cls", ALGORITHMS)
    def test_plan_execution_matches_algorithm(self, fragmented_system, algorithm_cls):
        system = fragmented_system
        version = system.version_ids()[-1]
        entries = system.resolved_restore_range(version)

        before = system.io.snapshot()
        direct = [
            bytes(c.data)
            for c in algorithm_cls().restore(entries, system._read_container)
        ]
        direct_reads = system.io.delta(before).container_reads

        scheduler = system.restore_scheduler(algorithm_cls())
        before = system.io.snapshot()
        planned = [
            bytes(c.data)
            for c in execute_plan(
                entries, scheduler.plan(entries), system._read_container
            )
        ]
        planned_reads = system.io.delta(before).container_reads

        assert planned == direct
        assert planned_reads == direct_reads

    def test_speed_factor_accounting_unchanged(self, fragmented_system):
        # The Fig. 11 metric must not move: restore() through the scheduler
        # bills the same reads the serial FAA loop always has.
        result = fragmented_system.restore(fragmented_system.version_ids()[-1])
        assert result.container_reads > 1
        assert result.speed_factor > 0


# ----------------------------------------------------------------------
# Pipelined engine
# ----------------------------------------------------------------------
class TestPrefetchedExecution:
    @pytest.mark.parametrize("workers,readahead", [(2, None), (4, 2), (4, 16)])
    def test_parallel_matches_serial(self, fragmented_system, workers, readahead):
        version = fragmented_system.version_ids()[-1]
        serial = [
            bytes(c.data) for c in restore_stream(fragmented_system, version)
        ]
        parallel = [
            bytes(c.data)
            for c in restore_stream(
                fragmented_system, version, workers=workers, readahead=readahead
            )
        ]
        assert parallel == serial

    @pytest.mark.parametrize("algorithm_cls", ALGORITHMS)
    def test_parallel_billing_matches_serial(self, fragmented_system, algorithm_cls):
        system = fragmented_system
        version = system.version_ids()[-1]
        before = system.io.snapshot()
        list(system.restore_chunks(version, restorer=algorithm_cls()))
        serial_reads = system.io.delta(before).container_reads
        before = system.io.snapshot()
        list(
            restore_stream(
                system, version, restorer=algorithm_cls(), workers=4
            )
        )
        assert system.io.delta(before).container_reads == serial_reads

    def test_abandoned_stream_shuts_pool_down(self, fragmented_system):
        version = fragmented_system.version_ids()[-1]
        stream = restore_stream(fragmented_system, version, workers=4)
        next(stream)
        stream.close()  # no hang, no leaked worker exceptions

    def test_rejects_bad_knobs(self, fragmented_system):
        version = fragmented_system.version_ids()[-1]
        with pytest.raises(RestoreError):
            list(restore_stream(fragmented_system, version, workers=0))
        with pytest.raises(RestoreError):
            list(
                restore_stream(
                    fragmented_system, version, workers=2, readahead=0
                )
            )


# ----------------------------------------------------------------------
# Streaming materialize
# ----------------------------------------------------------------------
class TestMaterializeStreaming:
    def test_large_file_bounded_memory(self, tmp_path):
        # 48 MiB of stream through materialize must not buffer whole files:
        # peak traced allocation stays near one block, far under file size.
        block = bytes(1024) * 1024  # 1 MiB, referenced repeatedly

        def blocks():
            for _ in range(48):
                yield block

        plan = [("big.bin", 48 * MiB)]
        tracemalloc.start()
        materialize(plan, blocks(), str(tmp_path / "out"))
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert os.path.getsize(tmp_path / "out" / "big.bin") == 48 * MiB
        assert peak < 12 * MiB, f"materialize buffered {peak} bytes"

    def test_boundary_straddling_blocks(self, tmp_path):
        rng = random.Random(5)
        files = [(f"f{i}", rng.randbytes(rng.randrange(0, 5000))) for i in range(20)]
        joined = b"".join(data for _, data in files)
        # Rechunk the stream at boundaries unrelated to file edges.
        blocks = [joined[i : i + 777] for i in range(0, len(joined), 777)]
        plan = [(rel, len(data)) for rel, data in files]
        assert materialize(plan, iter(blocks), str(tmp_path / "out")) == 20
        for rel, data in files:
            assert (tmp_path / "out" / rel).read_bytes() == data

    def test_short_stream_leaves_no_partial_file(self, tmp_path):
        plan = [("ok.bin", 4), ("short.bin", 10)]
        with pytest.raises(RestoreError, match="ended early"):
            materialize(plan, iter([b"abcd", b"1234"]), str(tmp_path / "out"))
        assert (tmp_path / "out" / "ok.bin").read_bytes() == b"abcd"
        assert not (tmp_path / "out" / "short.bin").exists()
        assert not list((tmp_path / "out").glob("**/*.part"))


# ----------------------------------------------------------------------
# Verified restore
# ----------------------------------------------------------------------
class TestVerifiedRestore:
    def _corrupted_repo(self, tmp_path):
        # Version 2 drops two of version 1's files, so their now-cold
        # chunks demote from the active pool into archival container files
        # we can tamper with on disk.
        files = synthetic_files(21, count=3)
        entries = make_tree(str(tmp_path / "src"), files)
        repo = LocalRepository(str(tmp_path / "repo"))
        repo.backup_tree(entries, tag="one")
        keep = sorted(files)[0]
        survivor = make_tree(str(tmp_path / "src2"), {keep: files[keep]})
        repo.backup_tree(survivor, tag="two")
        containers = tmp_path / "repo" / "containers"
        victims = sorted(containers.glob("container-*.hdsc"))
        assert victims, "expected archival containers after the demotion"
        for victim in victims:
            # Payloads sit at the end of the file; flipping the final byte
            # corrupts one chunk's data without breaking the framing.
            blob = bytearray(victim.read_bytes())
            blob[-1] ^= 0xFF
            victim.write_bytes(bytes(blob))
        return LocalRepository(str(tmp_path / "repo"))

    @pytest.mark.parametrize("workers", [1, 4])
    def test_verify_catches_corruption(self, tmp_path, workers):
        repo = self._corrupted_repo(tmp_path)
        plan, data = repo.restore(1, verify=True, workers=workers)
        with pytest.raises(RestoreError, match="integrity failure"):
            for _ in data:
                pass

    def test_unverified_restore_misses_it(self, tmp_path):
        # The control: without --verify the corruption streams through,
        # which is exactly why the switch exists.
        repo = self._corrupted_repo(tmp_path)
        plan, data = repo.restore(1)
        restored = b"".join(data)
        assert len(restored) == sum(size for _, size in plan)


# ----------------------------------------------------------------------
# Partial restore
# ----------------------------------------------------------------------
class TestPartialRestore:
    def test_local_single_file(self, tmp_path):
        files = synthetic_files(31, count=5, size=30_000)
        entries = make_tree(str(tmp_path / "src"), files)
        repo = LocalRepository(str(tmp_path / "repo"))
        repo.backup_tree(entries, tag="snap")
        target = files and sorted(files)[2]
        plan, data = repo.restore(1, file=target)
        assert plan == [(target, len(files[target]))]
        assert b"".join(data) == files[target]

    def test_partial_reads_fewer_containers(self, tmp_path):
        rng = random.Random(41)
        files = {f"f{i}.bin": rng.randbytes(600_000) for i in range(12)}
        entries = make_tree(str(tmp_path / "src"), files)
        repo = LocalRepository(str(tmp_path / "repo"))
        repo.backup_tree(entries, tag="snap")
        store = repo._open()
        before = store.io.snapshot()
        plan, data = repo.restore(1, file="f0.bin")
        assert b"".join(data) == files["f0.bin"]
        partial_reads = store.io.delta(before).container_reads
        before = store.io.snapshot()
        _, full = repo.restore(1)
        b"".join(full)
        full_reads = store.io.delta(before).container_reads
        assert partial_reads < full_reads

    def test_unknown_file_raises(self, tmp_path):
        entries = make_tree(str(tmp_path / "src"), synthetic_files(32, count=2))
        repo = LocalRepository(str(tmp_path / "repo"))
        repo.backup_tree(entries, tag="snap")
        with pytest.raises(VersionNotFoundError, match="no file"):
            repo.restore(1, file="nope.bin")

    def test_remote_single_file(self, tmp_path):
        files = synthetic_files(33, count=4)
        entries = make_tree(str(tmp_path / "src"), files)
        with DaemonThread(str(tmp_path / "served")) as address:
            with RemoteRepository(address, "alpha") as repo:
                repo.backup_tree(entries, tag="snap")
                target = sorted(files)[1]
                plan, data = repo.restore(
                    1, file=target, workers=2, verify=True
                )
                assert plan == [(target, len(files[target]))]
                assert b"".join(data) == files[target]

    def test_cli_partial_restore(self, tmp_path, capsys):
        from repro.cli import main

        files = synthetic_files(34, count=4)
        make_tree(str(tmp_path / "src"), files)
        repo_dir = str(tmp_path / "repo")
        assert main(["backup", repo_dir, str(tmp_path / "src")]) == 0
        target = sorted(files)[0]
        out = str(tmp_path / "out")
        assert main(
            ["restore", repo_dir, "1", out, "--file", target,
             "--workers", "2", "--verify"]
        ) == 0
        assert tree_bytes(out) == {target: files[target]}


# ----------------------------------------------------------------------
# Remote parallel restores and the failure path
# ----------------------------------------------------------------------
class TestDaemonRestorePath:
    def test_remote_parallel_matches_local_bytes(self, tmp_path):
        files = synthetic_files(51, count=6, size=60_000)
        entries = make_tree(str(tmp_path / "src"), files)
        with DaemonThread(str(tmp_path / "served"), restore_workers=4) as address:
            with RemoteRepository(address, "alpha") as repo:
                repo.backup_tree(entries, tag="snap")
                plan, data = repo.restore(1, workers=4, readahead=8)
                materialize(plan, data, str(tmp_path / "out"))
                stats = repo.stats()
        assert tree_bytes(str(tmp_path / "out")) == files
        # The per-stage restore timings land in the daemon's registry.
        histograms = stats["metrics"]["histograms"]
        assert "restore.send_seconds" in histograms
        assert "restore.container_read_seconds" in histograms
        assert "restore.assemble_seconds" in histograms

    def test_midstream_failure_is_typed_and_clean(self, tmp_path):
        rng = random.Random(61)
        files = {"f0.bin": rng.randbytes(1 * MiB), "f1.bin": rng.randbytes(6 * MiB)}
        entries = make_tree(str(tmp_path / "src"), files)
        with DaemonThread(str(tmp_path / "served"), restore_workers=4) as address:
            with RemoteRepository(address, "alpha") as repo:
                repo.backup_tree(entries, tag="one")
                # Version 2 drops f1.bin, demoting its 6 MiB of chunks into
                # multiple archival containers on disk.
                survivor = make_tree(
                    str(tmp_path / "src2"), {"f0.bin": files["f0.bin"]}
                )
                repo.backup_tree(survivor, tag="two")
                containers = tmp_path / "served" / "alpha" / "containers"
                victims = sorted(containers.glob("container-*.hdsc"))
                assert len(victims) >= 2, "need multiple containers mid-stream"
                victims[-1].unlink()  # the engine dies after streaming some data
                plan, data = repo.restore(1, workers=4)
                target = str(tmp_path / "out")
                with pytest.raises(ReproError):
                    materialize(plan, data, target)
                # No truncated files masquerade as restored ones.
                assert not list((tmp_path / "out").glob("**/*.part"))
                for rel, payload in tree_bytes(target).items():
                    assert payload == files[rel], f"partial file {rel} left behind"
                # The pooled connection was discarded, not reused mid-error:
                # the next request on the same client works.
                assert [row["version_id"] for row in repo.versions()] == [1, 2]
