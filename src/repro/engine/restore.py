"""The pipelined restore engine: prefetched container reads, ordered output.

A restore plan (:mod:`repro.restore.scheduler`) names which containers to
read and which recipe slots each read serves; this module executes such a
plan with a **prefetching container reader pool** — N worker threads issue
:class:`~repro.storage.container_store.FileContainerStore` reads up to a
bounded *readahead* window ahead of consumption — and an order-preserving
reassembly stage that emits chunks strictly in recipe order as their reads
complete.  Container I/O, zlib decompression and (optional) SHA-1
re-verification all release the GIL, so they genuinely overlap with the
Python-side reassembly and with whatever the consumer does with the bytes
(file writes, socket sends).

Memory stays capped: at most ``readahead`` container reads are in flight
or awaiting collection at once, and only the chunks a read was scheduled
to serve are retained (the plan's slot lifetimes bound the assembly
buffer exactly as the policy's cache budget would).

Per-stage timings land in the observability registry:

* ``restore.container_read_seconds`` — one observation per billed read;
* ``restore.assemble_seconds`` — time the reassembly stage spent stalled
  waiting for the next plan step's reads (0 ≈ prefetch fully hides I/O).
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, Iterator, Optional, Sequence, Tuple

from ..chunking.fingerprint import Fingerprinter
from ..chunking.stream import Chunk
from ..errors import RestoreError
from ..observability import MetricsRegistry, get_registry
from ..restore.base import ContainerReader, RestoreAlgorithm
from ..restore.scheduler import ContainerRead, PlanSpan
from ..storage.recipe import RecipeEntry

#: Ranged slot fetch: ``(cid, fingerprints) -> {fp: Chunk}`` or ``None``
#: when the container can't be partially read (fall back to a full read).
ChunkReader = Callable[[int, Sequence[bytes]], Optional[Dict[bytes, Chunk]]]


def default_readahead(workers: int) -> int:
    """Default readahead window (in container reads) for a pool size."""
    return max(2, 2 * workers)


def verify_chunk(chunk: Chunk, fingerprinter: Fingerprinter) -> Chunk:
    """Re-hash one restored chunk against its recorded fingerprint.

    The real-path port of :class:`~repro.restore.verified.VerifyingRestore`:
    a bit-flip inside a container payload is caught here instead of passing
    silently (containers index chunks by their *recorded* fingerprint).
    """
    if chunk.data is None:
        raise RestoreError(
            f"chunk {chunk.short_fp()} carries no payload to verify"
        )
    actual = fingerprinter.fingerprint(chunk.data)
    if actual != chunk.fingerprint:
        raise RestoreError(
            f"integrity failure: chunk recorded as {chunk.short_fp()} "
            f"hashes to {actual.hex()[:8]}"
        )
    return chunk


def _fetch_slots(
    entries: Sequence[RecipeEntry],
    read: ContainerRead,
    reader: ContainerReader,
    fingerprinter: Optional[Fingerprinter],
    metrics: MetricsRegistry,
    chunk_reader: Optional[ChunkReader] = None,
) -> Dict[int, Chunk]:
    """Worker-side: one billed container read plus slot extraction.

    Extraction (and verification, when requested) happens on the worker so
    the GIL-releasing portions — file read, decompression, hashing — run
    concurrently across the pool.

    When ``chunk_reader`` is given (a store with ranged reads), only the
    scheduled slots' chunks travel over the wire; the fallback — and the
    billing, which is whole-container either way — is the full read.
    """
    started = time.perf_counter()
    if chunk_reader is not None:
        chunks = chunk_reader(
            read.cid, [entries[i].fingerprint for i in read.slots]
        )
        if chunks is not None:
            metrics.observe(
                "restore.container_read_seconds", time.perf_counter() - started
            )
            out: Dict[int, Chunk] = {}
            for i in read.slots:
                chunk = chunks[entries[i].fingerprint]
                if fingerprinter is not None:
                    verify_chunk(chunk, fingerprinter)
                out[i] = chunk
            return out
    container = reader(read.cid)
    metrics.observe("restore.container_read_seconds", time.perf_counter() - started)
    out = {}
    for i in read.slots:
        chunk = container.get_chunk(entries[i].fingerprint)
        if fingerprinter is not None:
            verify_chunk(chunk, fingerprinter)
        out[i] = chunk
    return out


def execute_plan_prefetched(
    entries: Sequence[RecipeEntry],
    plan: Iterator[PlanSpan],
    reader: ContainerReader,
    *,
    workers: int = 4,
    readahead: Optional[int] = None,
    verify: bool = False,
    metrics: Optional[MetricsRegistry] = None,
    chunk_reader: Optional[ChunkReader] = None,
) -> Iterator[Chunk]:
    """Execute a restore plan with a prefetching reader pool.

    Reads are issued up to ``readahead`` ahead of the reassembly cursor;
    chunks are emitted strictly in recipe order.  The billed read sequence
    is exactly the plan's — the same count and order a serial execution
    would issue — only the wall-clock overlap differs.
    """
    if workers < 1:
        raise RestoreError(f"restore workers must be >= 1, got {workers}")
    window = default_readahead(workers) if readahead is None else readahead
    if window < 1:
        raise RestoreError(f"readahead must be >= 1, got {window}")
    registry = metrics if metrics is not None else get_registry()
    fingerprinter = Fingerprinter() if verify else None

    def events() -> Iterator[Tuple[str, object]]:
        for span in plan:
            for read in span.reads:
                yield "read", read
            if span.emit:
                yield "emit", span.emit

    stream = events()
    #: ("read", Future[Dict[int, Chunk]]) and ("emit", indices), plan order.
    queue: deque = deque()
    pending: Dict[int, Chunk] = {}
    inflight = 0
    exhausted = False
    pool = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="restore")
    try:

        def pump() -> None:
            nonlocal inflight, exhausted
            while not exhausted and inflight < window:
                step = next(stream, None)
                if step is None:
                    exhausted = True
                    return
                kind, value = step
                if kind == "read":
                    queue.append(
                        ("read", pool.submit(
                            _fetch_slots, entries, value, reader,
                            fingerprinter, registry, chunk_reader,
                        ))
                    )
                    inflight += 1
                else:
                    queue.append(("emit", value))

        pump()
        while queue:
            kind, value = queue.popleft()
            if kind == "read":
                stalled = time.perf_counter()
                pending.update(value.result())
                registry.observe(
                    "restore.assemble_seconds", time.perf_counter() - stalled
                )
                inflight -= 1
                pump()
            else:
                for i in value:
                    try:
                        yield pending.pop(i)
                    except KeyError:
                        raise RestoreError(
                            f"restore plan emitted slot {i} before any read "
                            "served it"
                        ) from None
    finally:
        pool.shutdown(wait=False, cancel_futures=True)


def _execute_serial(
    entries: Sequence[RecipeEntry],
    plan: Iterator[PlanSpan],
    reader: ContainerReader,
    *,
    verify: bool,
    metrics: MetricsRegistry,
    chunk_reader: Optional[ChunkReader] = None,
) -> Iterator[Chunk]:
    """Single-threaded plan execution with the same timings and checks."""
    fingerprinter = Fingerprinter() if verify else None
    pending: Dict[int, Chunk] = {}
    for span in plan:
        started = time.perf_counter()
        for read in span.reads:
            pending.update(
                _fetch_slots(
                    entries, read, reader, fingerprinter, metrics, chunk_reader
                )
            )
        metrics.observe("restore.assemble_seconds", time.perf_counter() - started)
        for i in span.emit:
            try:
                yield pending.pop(i)
            except KeyError:
                raise RestoreError(
                    f"restore plan emitted slot {i} before any read served it"
                ) from None


def restore_stream(
    system,
    version_id: int,
    *,
    restorer: Optional[RestoreAlgorithm] = None,
    workers: int = 1,
    readahead: Optional[int] = None,
    verify: bool = False,
    rows: Optional[Callable[[Sequence[RecipeEntry]], slice]] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> Iterator[Chunk]:
    """Restore a version (or an entry range) through the scheduler layer.

    The one real-path restore implementation: resolves entries via the
    engine's :meth:`~repro.pipeline.base.RestoreMixin.resolved_restore_range`
    hook, plans through :meth:`~repro.pipeline.base.RestoreMixin.
    restore_scheduler`, then executes serially (``workers=1``) or with the
    prefetching pool.  ``verify`` re-hashes every chunk against its recipe
    fingerprint (typed :class:`~repro.errors.RestoreError` on mismatch).
    ``rows`` picks a partial restore's entry range from the version's
    recipe entries, so locating it costs no second recipe read.
    """
    if workers < 1:
        raise RestoreError(f"restore workers must be >= 1, got {workers}")
    if readahead is not None and readahead < 1:
        raise RestoreError(f"readahead must be >= 1, got {readahead}")
    registry = metrics if metrics is not None else get_registry()
    entries = system.resolved_restore_range(version_id, rows, registry)
    plan = system.restore_scheduler(restorer).plan(entries)
    reader = system._read_container
    chunk_reader = getattr(system, "_read_container_chunks", None)
    if workers <= 1:
        return _execute_serial(
            entries, plan, reader, verify=verify, metrics=registry,
            chunk_reader=chunk_reader,
        )
    return execute_plan_prefetched(
        entries, plan, reader,
        workers=workers, readahead=readahead, verify=verify, metrics=registry,
        chunk_reader=chunk_reader,
    )
