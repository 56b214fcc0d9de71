"""Span recorder for the traced run.

The recorder patches public callables at layer boundaries from the outside
(nothing under ``src/`` knows about it), records one span per call while a
root operation is open, and restores every callable afterwards.

A span has a name, start, end, parent and the id of the operation it belongs
to.  ``busy`` is the time the callable actually ran: ``end - start`` for a
plain call, the summed time inside ``next()`` for a wrapped generator (whose
consumer runs between its yields).  A span's *self time* is ``busy`` minus
the ``busy`` of its children, so per operation the self times add up to the
root span exactly.

Consecutive childless calls of one callable under one parent are folded into
a single span with a ``calls`` count: 900 ``Fingerprinter.chunk`` calls per
segment stay one row in the trace instead of 900.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional, Tuple


class Span:
    __slots__ = ("name", "op", "parent", "start", "end", "busy", "calls", "child_busy", "last")

    def __init__(self, name: str, op: int, parent: Optional["Span"], start: float) -> None:
        self.name = name
        self.op = op
        self.parent = parent
        self.start = start
        self.end = start
        self.busy = 0.0
        self.calls = 1
        self.child_busy = 0.0
        #: Most recently closed child, the candidate for folding.
        self.last: Optional[Span] = None

    @property
    def self_time(self) -> float:
        return self.busy - self.child_busy


#: Called as ``note(counts, args, result)`` after a wrapped call returns.
Note = Callable[[Dict[str, float], tuple, object], None]


class Recorder:
    """Collects spans and boundary counts; owns the patches it installs."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        #: Open spans of the calling thread: client threads each run their
        #: own operations, and a span belongs to the thread that opened it.
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []
        self._op_ids = itertools.count(1)

    # -- recording -----------------------------------------------------
    @property
    def _stack(self) -> List[Span]:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def _recording(self) -> bool:
        return bool(self._stack)

    def _open(self, name: str) -> Span:
        parent = self._stack[-1]
        span = Span(name, parent.op, parent, time.perf_counter())
        self._stack.append(span)
        return span

    def _close(self, span: Span, busy: float) -> None:
        span.end = time.perf_counter()
        span.busy = busy if busy >= 0 else span.end - span.start
        self._stack.pop()
        parent = span.parent
        parent.child_busy += span.busy
        prior = parent.last
        if (
            prior is not None
            and prior.name == span.name
            and span.child_busy == 0.0
            and prior.child_busy == 0.0
        ):
            prior.busy += span.busy
            prior.calls += 1
            prior.end = span.end
            return
        parent.last = span
        self.spans.append(span)

    @contextlib.contextmanager
    def root(self, name: str) -> Iterator[Span]:
        """Open the root span of one operation; layer spans nest under it."""
        span = Span(name, next(self._op_ids), None, time.perf_counter())
        stack = self._stack
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            span.busy = span.end - span.start
            stack.pop()
            self.spans.append(span)

    # -- patching ------------------------------------------------------
    def wrap(self, owner: object, attr: str, name: str, note: Optional[Note] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        original = getattr(owner, attr)
        recorder = self

        def traced(*args, **kwargs):
            if not recorder._recording():
                return original(*args, **kwargs)
            span = recorder._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder._close(span, -1.0)
            if note is not None:
                note(recorder.counts, args, result)
            return result

        self._patch(owner, attr, original, traced)

    def wrap_iterator(self, owner: object, attr: str, name: str) -> None:
        """Like :meth:`wrap` for a callable that returns a lazy iterator.

        The span covers the call and every ``next()`` on its result; time
        the consumer spends between items is not the callable's.
        """
        original = getattr(owner, attr)
        recorder = self

        def traced(*args, **kwargs):
            if not recorder._recording():
                return original(*args, **kwargs)
            return recorder._drive(name, lambda: iter(original(*args, **kwargs)))

        self._patch(owner, attr, original, traced)

    def _drive(self, name: str, make: Callable[[], Iterator]) -> Iterator:
        span = self._open(name)
        busy = 0.0
        mark = time.perf_counter()
        try:
            inner = make()
        except BaseException:
            self._close(span, time.perf_counter() - mark)
            raise
        busy += time.perf_counter() - mark
        self._stack.pop()

        def items() -> Iterator:
            nonlocal busy
            stack = self._stack
            try:
                while True:
                    stack.append(span)
                    mark = time.perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        busy += time.perf_counter() - mark
                        stack.pop()
                    yield item
            finally:
                # Also reached when the consumer abandons the iterator early.
                stack.append(span)
                self._close(span, busy)

        return items()

    def count_calls(self, owner: object, attr: str, key: str) -> None:
        """Count calls of ``owner.attr`` without opening a span."""
        original = getattr(owner, attr)
        recorder = self

        def counted(*args, **kwargs):
            if recorder._recording():
                recorder.counts[key] += 1
            return original(*args, **kwargs)

        self._patch(owner, attr, original, counted)

    def _patch(self, owner: object, attr: str, original: object, replacement: object) -> None:
        # ``vars`` keeps a function stored on a class a plain function, so
        # restoring it does not turn it into a bound method.
        stored = vars(owner).get(attr, original)
        self._patches.append((owner, attr, stored))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Put every patched callable back."""
        while self._patches:
            owner, attr, stored = self._patches.pop()
            setattr(owner, attr, stored)

    # -- results -------------------------------------------------------
    def roots(self) -> List[Span]:
        return [span for span in self.spans if span.parent is None]

    def self_times(self) -> Dict[str, float]:
        """Summed self time per span name (roots included)."""
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span.name] += span.self_time
        return dict(totals)

    def reconcile(self) -> float:
        """Largest per-operation gap between the root and its self times."""
        by_op: Dict[int, float] = defaultdict(float)
        root_busy: Dict[int, float] = {}
        for span in self.spans:
            by_op[span.op] += span.self_time
            if span.parent is None:
                root_busy[span.op] = span.busy
        return max(
            (abs(by_op[op] - busy) for op, busy in root_busy.items()), default=0.0
        )

    def dump(self) -> List[Dict]:
        """The spans as JSON rows; ``parent`` is a row index or ``None``."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        return [
            {
                "name": span.name,
                "op": span.op,
                "parent": None if span.parent is None else index[id(span.parent)],
                "start": span.start,
                "end": span.end,
                "busy": span.busy,
                "self": span.self_time,
                "calls": span.calls,
            }
            for span in self.spans
        ]


def install_layer_wraps(recorder: Recorder) -> None:
    """Patch the layer boundaries the per-layer metrics are named after."""
    import repro.repository as repository
    from repro.chunking.fingerprint import Fingerprinter
    from repro.core.chunk_filter import ActiveContainerPool
    from repro.core.deletion import DeletionManager
    from repro.core.double_cache import DoubleHashCache
    from repro.core.recipe_chain import RecipeChain
    from repro.engine import restore as engine_restore
    from repro.engine import shared_pool
    from repro.storage.backend import FileBackend
    from repro.storage.container_store import BackendContainerStore
    from repro.storage.recipe import BackendRecipeStore, FileRecipeStore
    from repro.storage.repo import RepoStorage

    def add(key: str, amount: Callable[[tuple, object], float]) -> Note:
        def note(counts: Dict[str, float], args: tuple, result: object) -> None:
            counts[key] += amount(args, result)

        return note

    def lookups(counts: Dict[str, float], args: tuple, result: object) -> None:
        counts["lookups"] += len(result)
        counts["lookup_hits"] += sum(1 for entry in result if entry is not None)

    def fingerprinted(counts: Dict[str, float], args: tuple, result: object) -> None:
        counts["chunks"] += 1
        counts["chunk_bytes"] += result.size

    # ``chunk_segment`` resolves ``split_fast`` through its own module.
    recorder.wrap(shared_pool, "split_fast", "chunking.split",
                  add("split_bytes", lambda args, _r: len(args[1])))
    recorder.wrap(Fingerprinter, "chunk", "chunking.fingerprint", fingerprinted)
    recorder.wrap(DoubleHashCache, "lookup_many", "core.double_cache.lookup", lookups)
    recorder.wrap(ActiveContainerPool, "store_chunks", "core.chunk_filter.store")
    recorder.wrap(ActiveContainerPool, "demote", "core.chunk_filter.demote",
                  add("cold_bytes", lambda args, _r: sum(e.size for e in args[1].values())))
    recorder.wrap(ActiveContainerPool, "compact", "core.chunk_filter.compact")
    recorder.wrap(RecipeChain, "write_fresh", "core.recipe_chain.write")
    recorder.wrap(RecipeChain, "update_previous", "core.recipe_chain.update_previous")
    recorder.wrap(RecipeChain, "flatten", "core.recipe_chain.flatten",
                  add("flattened_entries", lambda _a, result: result))
    recorder.wrap(DeletionManager, "delete_version", "core.deletion.delete",
                  add("containers_deleted", lambda _a, result: result.containers_deleted))
    recorder.wrap(BackendContainerStore, "write", "storage.container_store.write",
                  add("container_write_bytes", lambda args, _r: args[1].used))
    recorder.wrap(BackendContainerStore, "read", "storage.container_store.read",
                  add("container_read_bytes", lambda _a, result: result.used))
    # Unbilled loads: deep verify and expiry look containers up this way.
    recorder.wrap(BackendContainerStore, "peek", "storage.container_store.peek")
    for store in (FileRecipeStore, BackendRecipeStore):
        recorder.wrap(store, "write", "storage.recipe.write",
                      add("recipe_bytes", lambda args, _r: args[1].byte_size))
    # Building the document and writing it are one layer's work.
    recorder.wrap(repository, "checkpoint_document", "core.checkpoint.save")
    recorder.wrap(RepoStorage, "write_checkpoint_document", "core.checkpoint.save")
    recorder.wrap(RepoStorage, "write_manifest", "storage.manifest.write")
    recorder.wrap_iterator(engine_restore, "restore_stream", "engine.restore.stream")
    recorder.count_calls(FileBackend, "put", "backend_puts")
    recorder.count_calls(FileBackend, "put_meta", "backend_puts")
    recorder.count_calls(FileBackend, "rename", "backend_renames")
