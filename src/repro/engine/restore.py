"""The pipelined restore engine: prefetched container reads, ordered runs.

An FAA restore plan (:mod:`repro.restore.scheduler`) names which
containers to read and which recipe slots each read serves; this module
executes such a plan with a **prefetching container reader pool** — N
worker threads issue :class:`~repro.storage.container_store.
BackendContainerStore` reads up to a window of twice as many reads ahead
of consumption — and an order-preserving reassembly stage that emits the
version strictly in recipe order as reads complete.  Container I/O, zlib decompression and (optional) SHA-1
re-verification all release the GIL, so they genuinely overlap with the
Python-side reassembly and with whatever the consumer does with the bytes
(file writes, socket sends).

The output is **runs** (:class:`Run`), not chunks: entries that lie back to
back in one container payload leave as one slice, so the physical locality
of a container read (§4.4) reaches the consumer whole.  A read is priced
per container, not per chunk: it is served straight from the container's
entry index (:attr:`~repro.storage.container.Container.index`), active or
archival alike, and cut into runs in one pass over its slots.  Rows are
never objects here: the plan is made off the recipe's CID and size columns
(:class:`~repro.storage.recipe.RecipeColumns`) and reads are cut off its
fingerprint column.  Plans and billing are the scheduler's;
:func:`~repro.restore.scheduler.execute_plan` is the per-chunk oracle.

Memory stays capped: at most ``max(2, 2 × workers)`` container reads are
in flight or awaiting collection at once, and only the runs a read was
scheduled to serve are retained (the plan's slot lifetimes bound the
assembly buffer as the policy's cache budget would).  An archival read
serving under half its payload copies its runs out, so a held run pins at
most twice its bytes (a pool container's buffer stays in the pool anyway,
so its runs are always views).  On
``file://`` the blob is a read-only mapping of the container file: a sparse
read copies only the bytes it serves, and a dense read's runs are views of
the mapping, which is unmapped when the last of them is dropped.

Per-stage timings land in the observability registry:

* ``restore.container_read_seconds`` — one observation per billed read;
* ``restore.assemble_seconds`` — time the reassembly stage spent stalled
  waiting for the next plan step's reads (0 ≈ prefetch fully hides I/O).
"""

from __future__ import annotations

import time
from bisect import bisect_left
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from itertools import accumulate
from operator import itemgetter
from typing import Callable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from ..chunking.fingerprint import Fingerprinter
from ..errors import RestoreError, UnknownChunkError
from ..observability import MetricsRegistry, get_registry
from ..restore.base import ContainerReader
from ..restore.scheduler import ContainerRead, PlanSpan
from ..storage.container import Container

#: Ranged slot fetch: ``(cid, fingerprints) ->`` a container indexed over
#: just those chunks, or ``None`` when the container can't be partially read
#: (fall back to a full read).
ChunkReader = Callable[[int, Sequence[bytes]], Optional[Container]]


class Run(NamedTuple):
    """Contiguous restored bytes: ``data`` holds ``entries`` recipe entries."""

    data: object
    entries: int


#: A served run keyed by its first entry's index.
Served = Tuple[int, Run]

_FIRST = itemgetter(0)
_ENTRIES = itemgetter(1)
_new = tuple.__new__


def _check(fingerprinter: Fingerprinter, fp: bytes, data) -> None:
    actual = fingerprinter.fingerprint(data)
    if actual != fp:
        raise RestoreError(
            f"integrity failure: chunk recorded as {fp.hex()[:8]} "
            f"hashes to {actual.hex()[:8]}"
        )


def _serve(
    fingerprints: Sequence[bytes],
    read: ContainerRead,
    reader: ContainerReader,
    chunk_reader: Optional[ChunkReader],
    fingerprinter: Optional[Fingerprinter],
    metrics: MetricsRegistry,
) -> List[Served]:
    """Worker-side: one billed container read, cut into the runs it serves.

    Returns each run under its first entry's index, in slot order.  Every
    container is served from its entry index — an active one from the
    pool, an archival one decoded from the whole blob or from
    ``chunk_reader``'s ranged spans: one pass over the read's slots, looked
    up through the fingerprint column, cuts every stretch of consecutive
    entries that lie back to back in the payload into one run.  Runs are
    views of the payload (on ``file://``, of the mapped file; for the pool,
    of the container's buffer, which is never resized while viewed), except
    that an archival (sealed) read serving under half its payload copies
    each run out, so the payload goes as soon as the read returns.

    The read, decompression and verification (each entry's own bytes are
    re-hashed, so a bit-flip names its chunk) happen here, on the worker,
    so the GIL-releasing portions run concurrently across the pool.  With
    ``chunk_reader`` (a store with ranged reads) only the scheduled slots'
    chunks travel; the fallback, and the billing, is the whole container.
    """
    started = time.perf_counter()
    slots = read.slots
    container = None
    if chunk_reader is not None:
        container = chunk_reader(read.cid, [fingerprints[i] for i in slots])
    if container is None:
        container = reader(read.cid)
    metrics.observe("restore.container_read_seconds", time.perf_counter() - started)
    index, payload = container.index, container.payload
    if payload is None:
        raise RestoreError(f"container {read.cid} carries no payload")
    cuts = []  # (first entry, payload start, payload end, entries)
    first = -1
    begin = end = count = 0
    located = map(index.__getitem__, map(fingerprints.__getitem__, slots))
    try:
        for i, (start, size) in zip(slots, located):
            if start == end and i == first + count:
                end += size
                count += 1
                continue
            if count:
                cuts.append((first, begin, end, count))
            first, begin, end, count = i, start, start + size, 1
        if fingerprinter is not None:
            for i in slots:
                fp = fingerprints[i]
                start, size = index[fp]
                _check(fingerprinter, fp, payload[start : start + size])
    except KeyError as missing:
        raise UnknownChunkError(
            f"container {read.cid} does not hold {missing.args[0].hex()[:8]}"
        ) from None
    if count:
        cuts.append((first, begin, end, count))
    copy = container.sealed and 2 * sum(end - begin for _i, begin, end, _n in cuts) < len(payload)
    # ``tuple.__new__`` builds each Run without the NamedTuple's Python-level constructor.
    return [
        (first, _new(Run, (bytes(payload[begin:end]) if copy else payload[begin:end], count)))
        for first, begin, end, count in cuts
    ]


def _emit(held: List[Served], cursor: int, stop: int) -> Tuple[Sequence[Run], List[Served], int]:
    """The held runs that restore entries ``[cursor, stop)`` in order, the
    runs held for later steps, and the new cursor (the last run may reach
    past ``stop``).  The runs must tile the range from ``cursor`` on."""
    held.sort(key=_FIRST)
    firsts, runs = zip(*held) if held else ((), ())
    split = bisect_left(firsts, stop)
    firsts, runs = firsts[:split], runs[:split]
    tiled = tuple(accumulate(map(_ENTRIES, runs), initial=cursor))
    if firsts != tiled[:-1] or tiled[-1] < stop:
        missing = next((at for first, at in zip(firsts, tiled) if first != at), tiled[-1])
        raise RestoreError(f"restore plan emitted slot {missing} before any read served it")
    return runs, held[split:], tiled[-1]


def execute_plan_prefetched(
    fingerprints: Sequence[bytes],
    plan: Iterator[PlanSpan],
    reader: ContainerReader,
    *,
    workers: int = 4,
    verify: bool = False,
    metrics: Optional[MetricsRegistry] = None,
    chunk_reader: Optional[ChunkReader] = None,
) -> Iterator[Run]:
    """Execute a restore plan with a prefetching reader pool.

    Reads are issued up to ``max(2, 2 × workers)`` ahead of the reassembly
    cursor; runs are emitted strictly in recipe order.  The billed read sequence
    is exactly the plan's — the same count and order a serial execution
    would issue — only the wall-clock overlap differs.  Closing the stream
    returns once the reads in flight (at most ``workers``) have finished,
    so a caller may release the repository the moment it does.
    """
    window = max(2, 2 * workers)
    registry = metrics if metrics is not None else get_registry()
    fingerprinter = Fingerprinter() if verify else None

    def events() -> Iterator[Tuple[str, object]]:
        for span in plan:
            for read in span.reads:
                yield "read", read
            if span.emit:
                yield "emit", span.emit[-1] + 1

    stream = events()
    #: ("read", Future[runs]) and ("emit", end of the span's entries), plan order.
    queue: deque = deque()
    held: List[Served] = []
    cursor = 0
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
                            _serve, fingerprints, value, reader, chunk_reader,
                            fingerprinter, registry,
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
                held += value.result()
                registry.observe(
                    "restore.assemble_seconds", time.perf_counter() - stalled
                )
                inflight -= 1
                pump()
            elif value > cursor:
                runs, held, cursor = _emit(held, cursor, value)
                yield from runs
    finally:
        # Wait for the reads in flight, never join the pool's threads: an
        # unfinished stream may be closed by the garbage collector inside a
        # starting thread that holds threading's shutdown lock, which a
        # join takes again (a self-deadlock).  A read the shutdown cancelled
        # never runs, and ``wait`` would never count it done.
        pool.shutdown(wait=False, cancel_futures=True)
        wait([future for kind, future in queue if kind == "read" and not future.cancelled()])


def _execute_serial(
    fingerprints: Sequence[bytes],
    plan: Iterator[PlanSpan],
    reader: ContainerReader,
    *,
    verify: bool,
    metrics: MetricsRegistry,
    chunk_reader: Optional[ChunkReader] = None,
) -> Iterator[Run]:
    """Single-threaded plan execution with the same timings and checks."""
    fingerprinter = Fingerprinter() if verify else None
    held: List[Served] = []
    cursor = 0
    for span in plan:
        started = time.perf_counter()
        for read in span.reads:
            held += _serve(fingerprints, read, reader, chunk_reader, fingerprinter, metrics)
        metrics.observe("restore.assemble_seconds", time.perf_counter() - started)
        if span.emit and span.emit[-1] >= cursor:
            runs, held, cursor = _emit(held, cursor, span.emit[-1] + 1)
            yield from runs


def restore_stream(
    system,
    version_id: int,
    *,
    workers: int = 1,
    verify: bool = False,
    rows: Optional[Callable[[Sequence[int]], slice]] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> Iterator[Run]:
    """Restore a version (or an entry range) through the scheduler layer.

    The one real-path restore implementation: resolves the rows' columns
    via the engine's :meth:`~repro.pipeline.base.RestoreMixin.resolved_restore_range`
    hook, plans FAA off their CID and size columns through
    :meth:`~repro.pipeline.base.RestoreMixin.restore_scheduler` (an engine
    with another policy raises :class:`~repro.errors.RestoreError`), then
    executes serially (``workers=1``) or with the prefetching pool, yielding
    :class:`Run` s in recipe order.  ``verify``
    re-hashes every entry against its recipe fingerprint (typed
    :class:`~repro.errors.RestoreError` on mismatch).  ``rows`` picks a
    partial restore's entry range from the version's recipe entry sizes,
    so locating it costs no second recipe read.
    """
    registry = metrics if metrics is not None else get_registry()
    columns = system.resolved_restore_range(version_id, rows)
    plan = system.restore_scheduler().plan(columns.cids, columns.sizes)
    reader = system._read_container
    chunk_reader = getattr(system, "_read_container_chunks", None)
    if workers <= 1:
        return _execute_serial(
            columns.fingerprints, plan, reader, verify=verify, metrics=registry,
            chunk_reader=chunk_reader,
        )
    return execute_plan_prefetched(
        columns.fingerprints, plan, reader,
        workers=workers, verify=verify, metrics=registry,
        chunk_reader=chunk_reader,
    )
