"""The segment-contract ingest plane: one chunking kernel, one shared pool.

Every backup — local, daemon session, cluster route — chunks through
:func:`iter_segments` → :func:`chunk_segment`, inline or on a
:class:`SharedChunkPool`.  The daemon owns one pool for its whole lifetime
and shares it across every tenant/session; a local ``backup --workers N``
builds the same pool around one backup:

* **Shared-memory handoff.**  Ingest payloads are packed into fixed-size
  segments and written into ``multiprocessing.shared_memory`` slabs; a
  worker receives only an ``(slab name, length)`` descriptor, so a 4 MB
  segment ships as a few dozen bytes instead of a pickled copy.  Workers
  return chunk *metadata* (cut lengths + fingerprints); the parent slices
  payload bytes back out of its own reference to the segment.
* **Determinism by construction.**  Segmentation is a pure function of
  the byte stream (fixed ``SEGMENT_BYTES`` boundaries) and each segment is
  chunked independently with the same :func:`~repro.chunking.vectorized.
  split_fast` kernel, so the serial inline path, a 1-worker pool, an
  N-worker pool and a thread pool all produce byte-identical chunk
  sequences — and therefore identical recipes, containers and dedup stats.
* **Crash-safe respawn.**  A killed worker breaks the whole
  ``ProcessPoolExecutor``; the pool rebuilds it and resubmits the affected
  descriptors (their slabs still hold the payloads) up to
  ``max_retries`` times before surfacing a typed error — at which point
  the repository's rollback guard discards the partial version.
* **Orphan sweep.**  Slab names embed the owning PID; on daemon startup
  :func:`sweep_orphaned_segments` unlinks ``/dev/shm`` segments whose
  owner died without cleanup (a SIGKILL'd daemon, an OOM'd test run).

Observability (all in the shared metrics registry):

* ``ingest.queue_depth`` — gauge, descriptors currently in flight;
* ``ingest.chunk_seconds`` — histogram, per-segment worker chunk+hash time;
* ``ingest.handoff_seconds`` — histogram, parent-side slab copy + slice time;
* ``ingest.segments_total`` / ``ingest.worker_respawns`` /
  ``ingest.orphaned_segments_swept`` — counters.
"""

from __future__ import annotations

import itertools
import os
import queue
import threading
import time
from collections import deque
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import shared_memory
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..chunking.fastcdc import FastCDCChunker
from ..chunking.fingerprint import Fingerprinter
from ..chunking.stream import Chunk
from ..chunking.vectorized import cut_lengths, split_fast
from ..errors import ReproError
from ..observability import MetricsRegistry, get_registry

#: Ingest segment size: the unit of worker handoff and of chunk-boundary
#: reset.  4 MiB ≈ one container of chunks per segment; large enough that
#: the vectorized FastCDC kernel dominates, small enough that concurrent
#: tenants interleave fairly on the pool.
SEGMENT_BYTES = 4 * 1024 * 1024

#: Prefix for shared-memory slab names: ``<prefix>-<pid>-<seq>``.  The PID
#: lets a later daemon identify (and sweep) slabs whose owner died.
SHM_PREFIX = "hidestore-ing"

_SLAB_SEQ = itertools.count()


class IngestPoolError(ReproError):
    """The shared chunking pool lost workers beyond its retry budget."""


def iter_segments(blocks: Iterable[bytes], segment_bytes: int = SEGMENT_BYTES) -> Iterator[bytes]:
    """Re-frame an arbitrary block stream into fixed-size ingest segments.

    Segmentation depends only on the concatenated byte stream — never on
    how the transport happened to frame it — so every execution mode
    chunks identical segments.  The final segment is simply shorter.
    """
    buffer = bytearray()
    for block in blocks:
        buffer += block
        while len(buffer) >= segment_bytes:
            yield bytes(buffer[:segment_bytes])
            del buffer[:segment_bytes]
    if buffer:
        yield bytes(buffer)


def chunk_segment(chunker, fingerprinter: Fingerprinter, segment: bytes) -> List[Chunk]:
    """Chunk + fingerprint one segment (the serial inline ingest path)."""
    return [fingerprinter.chunk(piece) for piece in split_fast(chunker, segment)]


# ----------------------------------------------------------------------
# Worker-process side
# ----------------------------------------------------------------------
_W_CHUNKER = None
_W_FINGERPRINTER: Optional[Fingerprinter] = None
_W_SLABS: Dict[str, shared_memory.SharedMemory] = {}


def _ingest_worker_init(chunker, fingerprinter: Fingerprinter) -> None:
    global _W_CHUNKER, _W_FINGERPRINTER
    _W_CHUNKER = chunker
    _W_FINGERPRINTER = fingerprinter


def _attach_slab(name: str) -> shared_memory.SharedMemory:
    slab = _W_SLABS.get(name)
    if slab is None:
        slab = _W_SLABS[name] = shared_memory.SharedMemory(name=name)
    return slab


def _chunk_bytes_worker(chunker, fingerprinter: Fingerprinter,
                        segment) -> Tuple[List[int], List[bytes], float]:
    """Cut lengths, fingerprints and stage seconds of one segment, in place.

    ``segment`` is any byte buffer (the thread executor passes the segment
    itself: it is shared memory already); its chunks are hashed as
    ``memoryview`` slices and never copied.
    """
    started = time.perf_counter()
    view = memoryview(segment)
    cuts = cut_lengths(chunker, view)
    fingerprints: List[bytes] = []
    offset = 0
    for cut in cuts:
        fingerprints.append(fingerprinter.fingerprint(view[offset:offset + cut]))
        offset += cut
    return cuts, fingerprints, time.perf_counter() - started


def _chunk_descriptor_worker(name: str, length: int) -> Tuple[List[int], List[bytes], float]:
    """Chunk the segment at ``(slab, length)``; return metadata only.

    The payload never crosses the process boundary, and is not copied out
    of the slab either: the worker chunks and hashes it where it lies, and
    ships back just cut lengths, fingerprints and the stage timing.
    """
    return _chunk_bytes_worker(_W_CHUNKER, _W_FINGERPRINTER, _attach_slab(name).buf[:length])


# ----------------------------------------------------------------------
# Orphan sweep
# ----------------------------------------------------------------------
def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def sweep_orphaned_segments(metrics: Optional[MetricsRegistry] = None,
                            base: str = "/dev/shm") -> int:
    """Unlink shared-memory slabs whose owning process is gone.

    Returns the number of segments removed.  A no-op on platforms without
    a visible ``/dev/shm``.
    """
    if not os.path.isdir(base):
        return 0
    removed = 0
    prefix = SHM_PREFIX + "-"
    for entry in os.listdir(base):
        if not entry.startswith(prefix):
            continue
        fields = entry[len(prefix):].split("-")
        try:
            pid = int(fields[0])
        except (IndexError, ValueError):
            continue
        if pid == os.getpid() or _pid_alive(pid):
            continue
        try:
            os.remove(os.path.join(base, entry))
            removed += 1
        except OSError:
            continue
    if removed and metrics is not None:
        metrics.inc("ingest.orphaned_segments_swept", removed)
    return removed


# ----------------------------------------------------------------------
# Parent side: the shared pool
# ----------------------------------------------------------------------
class _Slab:
    """One reusable shared-memory segment buffer."""

    __slots__ = ("shm",)

    def __init__(self, size: int) -> None:
        while True:
            name = f"{SHM_PREFIX}-{os.getpid()}-{next(_SLAB_SEQ)}"
            try:
                self.shm = shared_memory.SharedMemory(name=name, create=True, size=size)
                return
            except FileExistsError:  # pragma: no cover - seq collision
                continue

    def destroy(self) -> None:
        try:
            self.shm.close()
            self.shm.unlink()
        except (OSError, FileNotFoundError):  # pragma: no cover - already gone
            pass


class _Pending:
    """An in-flight segment: what is needed to (re)do it, then its future
    and the executor that future runs on."""

    __slots__ = ("slab", "segment", "future", "pool")

    def __init__(self, slab: Optional[_Slab], segment: bytes) -> None:
        self.slab = slab
        self.segment = segment
        self.future = None
        self.pool: Optional[Executor] = None


class SharedChunkPool:
    """One chunking pool for the daemon's lifetime, shared across tenants.

    Args:
        workers: worker count (>= 1).
        executor: ``"process"`` (default; shared-memory descriptor handoff)
            or ``"thread"`` (no slabs; for tests and GIL-releasing kernels).
        chunker: must be picklable; default paper-config FastCDC.
        fingerprinter: default SHA-1/20B.
        segment_bytes: slab size; segments above it are chunked inline.
        queue_depth: slab count == max descriptors in flight across *all*
            concurrent sessions (default ``2 * workers``).
        max_retries: pool rebuilds tolerated per backup before the typed
            :class:`IngestPoolError` aborts it.
        metrics: shared registry (defaults to the process registry).
    """

    def __init__(
        self,
        workers: int,
        *,
        executor: str = "process",
        chunker=None,
        fingerprinter: Optional[Fingerprinter] = None,
        segment_bytes: int = SEGMENT_BYTES,
        queue_depth: Optional[int] = None,
        max_retries: int = 1,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if executor not in ("process", "thread"):
            raise ValueError(f"executor must be 'process' or 'thread', got {executor!r}")
        if queue_depth is not None and queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        if segment_bytes < 1:
            raise ValueError(f"segment_bytes must be >= 1, got {segment_bytes}")
        self.workers = workers
        self.executor_kind = executor
        self.chunker = chunker if chunker is not None else FastCDCChunker()
        self.fingerprinter = fingerprinter if fingerprinter is not None else Fingerprinter()
        self.segment_bytes = segment_bytes
        self.queue_depth = queue_depth if queue_depth is not None else 2 * workers
        self.max_retries = max_retries
        self.metrics = metrics if metrics is not None else get_registry()
        self._lock = threading.Lock()
        self._pool: Optional[Executor] = None
        self._closed = False
        self._inflight = 0
        self._slabs: List[_Slab] = []
        self._free: "queue.Queue[_Slab]" = queue.Queue()
        if executor == "process":
            for _ in range(self.queue_depth):
                slab = _Slab(segment_bytes)
                self._slabs.append(slab)
                self._free.put(slab)

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _ensure_pool(self) -> Executor:
        with self._lock:
            if self._closed:
                raise IngestPoolError("shared chunking pool is closed")
            if self._pool is None:
                if self.executor_kind == "process":
                    self._pool = ProcessPoolExecutor(
                        max_workers=self.workers,
                        initializer=_ingest_worker_init,
                        initargs=(self.chunker, self.fingerprinter),
                    )
                else:
                    self._pool = ThreadPoolExecutor(
                        max_workers=self.workers, thread_name_prefix="ingest"
                    )
            return self._pool

    def _discard_broken_pool(self, broken: Executor) -> None:
        with self._lock:
            if self._pool is broken:
                self._pool = None
                self.metrics.inc("ingest.worker_respawns")
        broken.shutdown(wait=False, cancel_futures=True)

    def warm(self) -> None:
        """Spawn the workers eagerly (so startup cost is not paid mid-backup)."""
        if self.executor_kind == "process":
            pool = self._ensure_pool()
            try:
                pool.submit(os.getpid).result()
            except BrokenProcessPool:  # pragma: no cover - spawn failure
                self._discard_broken_pool(pool)

    def worker_pids(self) -> List[int]:
        """PIDs of the live worker processes (test/fault-injection hook)."""
        with self._lock:
            pool = self._pool
        if pool is None or self.executor_kind != "process":
            return []
        return [p.pid for p in getattr(pool, "_processes", {}).values()]

    def close(self) -> None:
        """Shut workers down and unlink every slab (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
        while True:  # drain the free queue so no one checks out a dead slab
            try:
                self._free.get_nowait()
            except queue.Empty:
                break
        for slab in self._slabs:
            slab.destroy()
        self._slabs = []

    def __enter__(self) -> "SharedChunkPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Submission plumbing
    # ------------------------------------------------------------------
    def _submit(self, record: _Pending, broken: Set[Executor]) -> None:
        """(Re)submit ``record`` to the live pool, rebuilding a broken one."""
        while True:
            pool = self._ensure_pool()
            try:
                if self.executor_kind == "process":
                    record.future = pool.submit(
                        _chunk_descriptor_worker, record.slab.shm.name, len(record.segment))
                else:
                    record.future = pool.submit(
                        _chunk_bytes_worker, self.chunker, self.fingerprinter, record.segment)
                record.pool = pool
                return
            except BrokenProcessPool as exc:
                self._note_break(broken, exc, pool)

    def _note_break(self, broken: Set[Executor], exc: Exception, pool: Executor) -> None:
        """``pool`` died under this backup; ``broken`` is every pool that has.

        One death shows up once at the next submit and once more for each
        future still in flight on it, in either order, so the retry budget
        counts dead pools, not sightings.
        """
        self._discard_broken_pool(pool)
        broken.add(pool)
        if len(broken) > self.max_retries:
            raise IngestPoolError(
                f"ingest worker pool broke {len(broken)} times "
                f"(retry budget {self.max_retries}); aborting backup"
            ) from exc

    def _drain_one(self, pending: "deque[_Pending]", broken: Set[Executor]) -> List[Chunk]:
        record = pending.popleft()
        try:
            while True:
                try:
                    cuts, fingerprints, seconds = record.future.result()
                    break
                except BrokenProcessPool as exc:
                    dead = record.pool
                    self._note_break(broken, exc, dead)
                    # The slabs of every descriptor in flight on the dead
                    # pool still hold their payloads; resubmit them in
                    # order to the rebuilt one.
                    for stale in (record, *pending):
                        if stale.pool is dead:
                            self._submit(stale, broken)
        except BaseException:
            self._release(record.slab)
            raise
        self.metrics.observe("ingest.chunk_seconds", seconds)
        mark = time.perf_counter()
        chunks: List[Chunk] = []
        offset = 0
        segment = record.segment
        for cut, fingerprint in zip(cuts, fingerprints):
            chunks.append(Chunk(fingerprint, cut, segment[offset:offset + cut]))
            offset += cut
        self._release(record.slab)
        self.metrics.observe("ingest.handoff_seconds", time.perf_counter() - mark)
        return chunks

    def _release(self, slab: Optional[_Slab]) -> None:
        if slab is not None:
            self._free.put(slab)
        with self._lock:
            self._inflight -= 1
            depth = self._inflight
        self.metrics.set_gauge("ingest.queue_depth", depth)

    # ------------------------------------------------------------------
    # The ingest API
    # ------------------------------------------------------------------
    def chunk_segments(self, segments: Iterable[bytes]) -> Iterator[List[Chunk]]:
        """Chunk segments on the shared pool, yielding per-segment chunk
        lists strictly in input order.

        Backpressure: in ``process`` mode the slab pool bounds in-flight
        descriptors across every concurrent session; a session that cannot
        get a slab first drains its own completed work, then waits for
        another session to release one.
        """
        pending: "deque[_Pending]" = deque()
        broken: Set[Executor] = set()
        try:
            for segment in segments:
                if not segment:
                    continue
                with self._lock:
                    if self._closed:
                        raise IngestPoolError("shared chunking pool is closed")
                slab = None
                if self.executor_kind == "process" and len(segment) <= self.segment_bytes:
                    while slab is None:
                        try:
                            slab = self._free.get_nowait()
                        except queue.Empty:
                            if pending:
                                yield self._drain_one(pending, broken)
                            else:
                                slab = self._free.get()
                elif self.executor_kind == "process":
                    # Oversized segment (caller used a custom segmenter):
                    # chunk it inline rather than overrun a slab.
                    yield chunk_segment(self.chunker, self.fingerprinter, segment)
                    continue
                else:
                    while len(pending) >= self.queue_depth:
                        yield self._drain_one(pending, broken)
                # Pending from the moment it owns a slab, so the ``finally``
                # below returns the slab even when the submit is what fails.
                record = _Pending(slab, segment)
                pending.append(record)
                with self._lock:
                    self._inflight += 1
                    depth = self._inflight
                self.metrics.inc("ingest.segments_total")
                self.metrics.set_gauge("ingest.queue_depth", depth)
                if slab is not None:
                    mark = time.perf_counter()
                    slab.shm.buf[:len(segment)] = segment
                    self.metrics.observe("ingest.handoff_seconds",
                                         time.perf_counter() - mark)
                self._submit(record, broken)
            while pending:
                yield self._drain_one(pending, broken)
        finally:
            while pending:
                record = pending.popleft()
                if record.future is not None:
                    record.future.cancel()
                self._release(record.slab)

    def chunk_blocks(self, blocks: Iterable[bytes]) -> Iterator[List[Chunk]]:
        """Segment a raw block stream, then :meth:`chunk_segments` it."""
        return self.chunk_segments(iter_segments(blocks, self.segment_bytes))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SharedChunkPool(workers={self.workers}, "
            f"executor={self.executor_kind!r}, depth={self.queue_depth}, "
            f"segment_bytes={self.segment_bytes})"
        )
