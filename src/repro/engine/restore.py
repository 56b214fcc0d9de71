"""The pipelined restore engine: prefetched container reads, ordered runs.

An FAA restore plan (:mod:`repro.restore.scheduler`) names which
containers to read and which recipe slots each read serves; this module
executes such a plan with a **prefetching container reader pool** — N
worker threads issue :class:`~repro.storage.container_store.
FileContainerStore` reads up to a bounded *readahead* window ahead of
consumption — and an order-preserving reassembly stage that emits the
version strictly in recipe order as reads complete.  Container I/O, zlib decompression and (optional) SHA-1
re-verification all release the GIL, so they genuinely overlap with the
Python-side reassembly and with whatever the consumer does with the bytes
(file writes, socket sends).

The output is **runs** (:class:`Run`), not chunks: entries that lie back to
back in one decoded container payload leave as one ``memoryview`` slice, so
the physical locality of a container read (§4.4) reaches the consumer whole.
Plans and billing are the scheduler's; :func:`~repro.restore.scheduler.
execute_plan` is the per-chunk oracle.

Memory stays capped: at most ``readahead`` container reads are in flight
or awaiting collection at once, and only the slots a read was scheduled to
serve are retained (the plan's slot lifetimes bound the assembly buffer as
the policy's cache budget would; held slots pin at most twice their bytes).

Per-stage timings land in the observability registry:

* ``restore.container_read_seconds`` — one observation per billed read;
* ``restore.assemble_seconds`` — time the reassembly stage spent stalled
  waiting for the next plan step's reads (0 ≈ prefetch fully hides I/O).
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from ..chunking.fingerprint import Fingerprinter
from ..chunking.stream import Chunk
from ..errors import RestoreError
from ..observability import MetricsRegistry, get_registry
from ..restore.base import ContainerReader
from ..restore.scheduler import ContainerRead, PlanSpan
from ..storage.recipe import RecipeEntry

#: Ranged slot fetch: ``(cid, fingerprints) -> {fp: Chunk}`` or ``None``
#: when the container can't be partially read (fall back to a full read).
ChunkReader = Callable[[int, Sequence[bytes]], Optional[Dict[bytes, Chunk]]]

Located = Tuple[object, int, int]  #: where one slot's bytes lie: (buffer, start, size)


class Run(NamedTuple):
    """Contiguous restored bytes: ``data`` holds ``entries`` recipe entries."""

    data: object
    entries: int


def default_readahead(workers: int) -> int:
    """Default readahead window (in container reads) for a pool size."""
    return max(2, 2 * workers)


def _fetch_slots(
    entries: Sequence[RecipeEntry],
    read: ContainerRead,
    reader: ContainerReader,
    fingerprinter: Optional[Fingerprinter],
    metrics: MetricsRegistry,
    located: List[Optional[Located]],
    chunk_reader: Optional[ChunkReader] = None,
) -> None:
    """Worker-side: one billed container read; fills ``located`` for its slots.

    Location (and verification, when requested: each entry's own bytes are
    re-hashed, so a bit-flip names its chunk) happens on the worker so the
    GIL-releasing portions — file read, decompression, hashing — run
    concurrently across the pool.

    When ``chunk_reader`` is given (a store with ranged reads), only the
    scheduled slots' chunks travel over the wire; the fallback — and the
    billing, which is whole-container either way — is the full read.
    """
    started = time.perf_counter()
    fps = [entries[i].fingerprint for i in read.slots]
    chunks = chunk_reader(read.cid, fps) if chunk_reader is not None else None
    if chunks is None:
        container = reader(read.cid)
        slots, payload = [container.get(fp) for fp in fps], container.payload
    else:
        slots, payload = [chunks[fp] for fp in fps], None
    metrics.observe("restore.container_read_seconds", time.perf_counter() - started)
    # A read serving under half its blob copies its slots out rather than
    # pin the whole blob for as long as they are held.
    copy = payload is not None and 2 * sum(slot.size for slot in slots) < len(payload)
    payload = None if copy else payload
    for i, fp, slot in zip(read.slots, fps, slots):
        data = bytes(slot.data) if copy else slot.data
        if data is None:
            raise RestoreError(f"chunk {fp.hex()[:8]} carries no payload")
        if fingerprinter is not None:
            actual = fingerprinter.fingerprint(data)
            if actual != fp:
                raise RestoreError(
                    f"integrity failure: chunk recorded as {fp.hex()[:8]} "
                    f"hashes to {actual.hex()[:8]}"
                )
        located[i] = (data, 0, len(data)) if payload is None else (payload, slot.offset, len(data))


def _runs(emit: Sequence[int], located: List[Optional[Located]]) -> Iterator[Run]:
    """One plan step's emissions; back-to-back entries of a payload merge."""
    base: object = None
    first = end = count = 0
    for i in emit:
        where, located[i] = located[i], None
        if where is None:
            raise RestoreError(f"restore plan emitted slot {i} before any read served it")
        buffer, start, size = where
        if buffer is base and start == end:
            end += size
            count += 1
            continue
        if base is not None:
            yield Run(base[first:end], count)
        base, first, end, count = buffer, start, start + size, 1
    if base is not None:
        yield Run(base[first:end], count)


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
) -> Iterator[Run]:
    """Execute a restore plan with a prefetching reader pool.

    Reads are issued up to ``readahead`` ahead of the reassembly cursor;
    runs are emitted strictly in recipe order.  The billed read sequence
    is exactly the plan's — the same count and order a serial execution
    would issue — only the wall-clock overlap differs.  Closing the stream
    returns once the reads in flight (at most ``workers``) have finished,
    so a caller may release the repository the moment it does.
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
    #: ("read", Future[None]) and ("emit", indices), plan order.
    queue: deque = deque()
    located: List[Optional[Located]] = [None] * len(entries)
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
                            fingerprinter, registry, located, chunk_reader,
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
                value.result()
                registry.observe(
                    "restore.assemble_seconds", time.perf_counter() - stalled
                )
                inflight -= 1
                pump()
            else:
                yield from _runs(value, located)
    finally:
        # Wait for the reads in flight, never join the pool's threads: an
        # unfinished stream may be closed by the garbage collector inside a
        # starting thread that holds threading's shutdown lock, which a
        # join takes again (a self-deadlock).  A read the shutdown cancelled
        # never runs, and ``wait`` would never count it done.
        pool.shutdown(wait=False, cancel_futures=True)
        wait([future for kind, future in queue if kind == "read" and not future.cancelled()])


def _execute_serial(
    entries: Sequence[RecipeEntry],
    plan: Iterator[PlanSpan],
    reader: ContainerReader,
    *,
    verify: bool,
    metrics: MetricsRegistry,
    chunk_reader: Optional[ChunkReader] = None,
) -> Iterator[Run]:
    """Single-threaded plan execution with the same timings and checks."""
    fingerprinter = Fingerprinter() if verify else None
    located: List[Optional[Located]] = [None] * len(entries)
    for span in plan:
        started = time.perf_counter()
        for read in span.reads:
            _fetch_slots(
                entries, read, reader, fingerprinter, metrics, located, chunk_reader
            )
        metrics.observe("restore.assemble_seconds", time.perf_counter() - started)
        yield from _runs(span.emit, located)


def restore_stream(
    system,
    version_id: int,
    *,
    workers: int = 1,
    readahead: Optional[int] = None,
    verify: bool = False,
    rows: Optional[Callable[[Sequence[RecipeEntry]], slice]] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> Iterator[Run]:
    """Restore a version (or an entry range) through the scheduler layer.

    The one real-path restore implementation: resolves entries via the
    engine's :meth:`~repro.pipeline.base.RestoreMixin.resolved_restore_range`
    hook, plans FAA through :meth:`~repro.pipeline.base.RestoreMixin.
    restore_scheduler` (an engine with another policy raises
    :class:`~repro.errors.RestoreError`), then executes serially
    (``workers=1``) or with the prefetching pool, yielding :class:`Run` s
    in recipe order.  ``verify``
    re-hashes every entry against its recipe fingerprint (typed
    :class:`~repro.errors.RestoreError` on mismatch).  ``rows`` picks a
    partial restore's entry range from the version's recipe entries, so
    locating it costs no second recipe read.
    """
    if workers < 1:
        raise RestoreError(f"restore workers must be >= 1, got {workers}")
    if readahead is not None and readahead < 1:
        raise RestoreError(f"readahead must be >= 1, got {readahead}")
    registry = metrics if metrics is not None else get_registry()
    entries = system.resolved_restore_range(version_id, rows, registry)
    plan = system.restore_scheduler().plan(entries)
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
