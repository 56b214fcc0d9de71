"""A dependency-free, thread-safe metrics registry.

Three instrument kinds, all keyed by dotted names (``server.backup_seconds``,
``repo.chunking_seconds``):

* :class:`Counter` — monotonically increasing integer/float totals;
* :class:`Gauge` — a point-in-time value (queue depth, active sessions);
* :class:`Histogram` — fixed-bucket latency distribution with
  interpolated quantiles (the Prometheus estimation scheme: find the
  bucket the rank falls into, interpolate linearly inside it).

Fixed buckets keep ``observe`` O(log buckets) with bounded memory, which
is what lets the hot ingest path record per-stage timings without a
measurable throughput cost.  Every instrument takes its own lock, so
concurrent worker threads never contend on a registry-wide lock for
updates — the registry lock only guards instrument creation and snapshots.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: Default histogram bounds (seconds): spans sub-millisecond container
#: reads up to minute-long full-repository backups.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
    0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

#: The quantiles every histogram snapshot reports.
SNAPSHOT_QUANTILES: Tuple[Tuple[str, float], ...] = (
    ("p50", 0.50), ("p95", 0.95), ("p99", 0.99),
)


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (got {amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """A point-in-time value (settable, incrementable, decrementable)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket distribution with interpolated quantile estimates.

    ``bounds`` are inclusive upper bucket edges; one implicit overflow
    bucket catches everything above the last bound.  Quantiles inside a
    bucket interpolate linearly between its edges; the overflow bucket
    reports the maximum observed value (exact, since we track it).
    """

    __slots__ = ("name", "bounds", "_counts", "_count", "_sum", "_min", "_max", "_lock")

    def __init__(self, name: str, bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        clean = tuple(float(b) for b in bounds)
        if not clean or any(b <= a for a, b in zip(clean, clean[1:])):
            raise ValueError(f"histogram {name} bounds must be strictly increasing: {bounds}")
        self.name = name
        self.bounds = clean
        self._counts = [0] * (len(clean) + 1)  # +1: the overflow bucket
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``0 < q <= 1``) from the buckets."""
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        with self._lock:
            return self._quantile_locked(q)

    def _quantile_locked(self, q: float) -> float:
        if self._count == 0:
            return 0.0
        rank = q * self._count
        cumulative = 0
        for index, bucket_count in enumerate(self._counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= rank:
                if index >= len(self.bounds):
                    return self._max if self._max is not None else self.bounds[-1]
                lower = self.bounds[index - 1] if index else 0.0
                upper = self.bounds[index]
                within = (rank - cumulative) / bucket_count
                estimate = lower + (upper - lower) * within
                # Never report outside the observed range.
                if self._max is not None:
                    estimate = min(estimate, self._max)
                if self._min is not None:
                    estimate = max(estimate, self._min)
                return estimate
            cumulative += bucket_count
        return self._max if self._max is not None else 0.0  # pragma: no cover

    def snapshot(self) -> Dict:
        with self._lock:
            doc: Dict = {
                "count": self._count,
                "sum": round(self._sum, 6),
                "min": round(self._min, 6) if self._min is not None else None,
                "max": round(self._max, 6) if self._max is not None else None,
            }
            for label, q in SNAPSHOT_QUANTILES:
                doc[label] = round(self._quantile_locked(q), 6)
        return doc


class MetricsRegistry:
    """Named instruments behind get-or-create accessors.

    The convenience recorders (:meth:`inc`, :meth:`observe`, :meth:`set_gauge`,
    :meth:`timer`) honour :attr:`enabled` — flipping it off turns every
    recording site into a near-free no-op, which is how the observability
    overhead benchmark measures its own cost.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # Instrument accessors (get-or-create)
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                self._check_free(name, self._counters)
                instrument = self._counters[name] = Counter(name)
            return instrument

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                self._check_free(name, self._gauges)
                instrument = self._gauges[name] = Gauge(name)
            return instrument

    def histogram(self, name: str, bounds: Optional[Sequence[float]] = None) -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                self._check_free(name, self._histograms)
                instrument = self._histograms[name] = Histogram(
                    name, bounds if bounds is not None else DEFAULT_LATENCY_BUCKETS
                )
            return instrument

    def _check_free(self, name: str, owner: Dict) -> None:
        for kind in (self._counters, self._gauges, self._histograms):
            if kind is not owner and name in kind:
                raise ValueError(f"metric name {name!r} already registered as another kind")

    # ------------------------------------------------------------------
    # Recording conveniences (no-ops while disabled)
    # ------------------------------------------------------------------
    def inc(self, name: str, amount: int = 1) -> None:
        if self.enabled:
            self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        if self.enabled:
            self.gauge(name).set(value)

    def observe(self, name: str, value: float,
                bounds: Optional[Sequence[float]] = None) -> None:
        if self.enabled:
            self.histogram(name, bounds).observe(value)

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Time a block into histogram ``name`` (records on error too)."""
        if not self.enabled:
            yield
            return
        started = time.perf_counter()
        try:
            yield
        finally:
            self.observe(name, time.perf_counter() - started)

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict:
        """A JSON-serialisable dump: counters, gauges, histogram quantiles."""
        with self._lock:
            counters = list(self._counters.values())
            gauges = list(self._gauges.values())
            histograms = list(self._histograms.values())
        return {
            "counters": {c.name: c.value for c in counters},
            "gauges": {g.name: g.value for g in gauges},
            "histograms": {h.name: h.snapshot() for h in histograms},
        }

    def reset(self) -> None:
        """Drop every instrument (tests and long-lived CLIs)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    def histogram_names(self) -> List[str]:
        with self._lock:
            return sorted(self._histograms)


#: The process-default registry deep layers record into when no explicit
#: registry is wired through (mirrors the prometheus default-registry idiom).
_DEFAULT = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-default :class:`MetricsRegistry`."""
    return _DEFAULT
