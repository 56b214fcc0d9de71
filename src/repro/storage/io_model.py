"""I/O accounting and an analytic disk cost model.

The paper deliberately reports *speed factor* (MB restored per container
read) instead of wall-clock throughput, because container-read counts are
hardware-independent.  :class:`IOStats` is the one ledger every store and
index bills, and the one place a billed event is recorded into the service's
:class:`~repro.observability.MetricsRegistry`; :class:`DiskModel` converts
read counts into estimated seconds for readers who want a feel for absolute
numbers (HDD-ish defaults).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, fields
from typing import Optional

from ..observability import MetricsRegistry, get_registry
from ..units import MiB


@dataclass
class IOStats:
    """Mutable ledger of simulated device traffic, one per engine.

    Each ``note_*`` call updates the paper's counters and records the same
    event in :attr:`metrics` (the process registry unless one is given):
    a store passes the ``seconds`` its I/O took, a read served from memory
    (the active pool) passes none and records nothing there.  Increments
    are lock-protected: the pipelined restore engine bills container reads
    from multiple worker threads, and an unguarded ``+= 1`` is a
    read-modify-write that can drop updates.
    """

    container_reads: int = 0
    container_writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    recipe_reads: int = 0
    recipe_writes: int = 0
    index_lookups: int = 0  # on-disk full-index probes (Fig. 9 metric)
    index_builds: int = 0  # archival-index builds (``restore.index_builds``)
    metrics: MetricsRegistry = field(default_factory=get_registry, repr=False, compare=False)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def note_container_read(self, nbytes: int, seconds: Optional[float] = None) -> None:
        with self._lock:
            self.container_reads += 1
            self.bytes_read += nbytes
        if seconds is not None:
            self.metrics.observe("store.container_read_seconds", seconds)
            self.metrics.inc("store.container_read_bytes", nbytes)

    def note_container_write(
        self, nbytes: int, seconds: Optional[float] = None, stored: int = 0
    ) -> None:
        """``nbytes`` of payload; ``stored``, the length of the blob written."""
        with self._lock:
            self.container_writes += 1
            self.bytes_written += nbytes
        if seconds is not None:
            self.metrics.observe("store.container_write_seconds", seconds)
            self.metrics.inc("store.container_write_bytes", stored)

    def note_recipe_read(self, nbytes: int = 0) -> None:
        with self._lock:
            self.recipe_reads += 1
            self.bytes_read += nbytes

    def note_recipe_write(self, nbytes: int = 0) -> None:
        with self._lock:
            self.recipe_writes += 1
            self.bytes_written += nbytes
        self.metrics.inc("store.recipe_write_bytes", nbytes)

    def note_index_lookup(self, count: int = 1) -> None:
        with self._lock:
            self.index_lookups += count

    def note_index_build(self) -> None:
        with self._lock:
            self.index_builds += 1
        self.metrics.inc("restore.index_builds")

    def snapshot(self) -> "IOStats":
        """Copy the current counters (e.g. before a restore, to diff after)."""
        with self._lock:
            return IOStats(**{name: getattr(self, name) for name in _COUNTERS})

    def delta(self, earlier: "IOStats") -> "IOStats":
        """Counters accumulated since ``earlier`` was snapshotted."""
        return IOStats(
            **{name: getattr(self, name) - getattr(earlier, name) for name in _COUNTERS}
        )


#: The ledger's counters: every field but the registry and the lock.
_COUNTERS = tuple(f.name for f in fields(IOStats) if f.compare)


@dataclass(frozen=True)
class DiskModel:
    """Analytic HDD model translating I/O counts into estimated seconds.

    Defaults approximate a 7.2k-RPM SATA drive: 8 ms average positioning
    per random access and 150 MiB/s sequential transfer.
    """

    seek_seconds: float = 0.008
    transfer_bytes_per_second: float = 150 * MiB
    index_lookup_seconds: float = 0.008  # one random read per index probe

    def restore_seconds(self, stats: IOStats) -> float:
        """Estimated time for the read traffic recorded in ``stats``."""
        random_accesses = stats.container_reads + stats.recipe_reads
        return (
            random_accesses * self.seek_seconds
            + stats.bytes_read / self.transfer_bytes_per_second
        )

    def dedup_index_seconds(self, stats: IOStats) -> float:
        """Estimated time spent on on-disk fingerprint-index probes."""
        return stats.index_lookups * self.index_lookup_seconds

    def throughput_mb_per_second(self, logical_bytes: int, stats: IOStats) -> float:
        """Logical MB restored per modelled second (0 if no traffic)."""
        seconds = self.restore_seconds(stats)
        if seconds <= 0:
            return 0.0
        return (logical_bytes / MiB) / seconds
