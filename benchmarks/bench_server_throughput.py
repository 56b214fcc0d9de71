"""Observability overhead on the daemon ingest path.

Runs a real :class:`~repro.server.BackupDaemon` on a loopback socket and
streams one tenant's synthetic versions through
:class:`~repro.client.RemoteRepository`, with metrics and the JSON event
log on and with both off.
"""

import random
import time

from common import emit, table, write_bench_json
from repro.client import RemoteRepository
from repro.observability import JsonEventLogger, MetricsRegistry
from repro.server import DaemonThread
from repro.units import MiB

#: Versions per run and logical bytes per version.
VERSIONS = 3
VERSION_BYTES = 4 * MiB

#: Fraction of each version's bytes rewritten from the previous one.
CHURN = 0.25


def _versions_for(seed):
    """VERSIONS byte-streams with CHURN-level drift between them."""
    rng = random.Random(seed)
    base = bytearray(rng.randbytes(VERSION_BYTES))
    streams = []
    for _ in range(VERSIONS):
        streams.append(bytes(base))
        edit = rng.randrange(0, VERSION_BYTES // 2)
        span = int(VERSION_BYTES * CHURN)
        base[edit : edit + span] = rng.randbytes(span)
    return streams


# ----------------------------------------------------------------------
# Observability overhead: metrics + JSON event log vs both disabled
# ----------------------------------------------------------------------
#: Best-of-N runs per configuration (min filters scheduler noise).
OVERHEAD_ROUNDS = 3

#: Ceiling on the acceptable slowdown from metrics + event logging.
OVERHEAD_BUDGET = 0.05


def _timed_solo_ingest(root, streams, server_kwargs, client_kwargs):
    """Wall-clock seconds to push ``streams`` through one tenant."""
    with DaemonThread(root, **server_kwargs) as address:
        started = time.perf_counter()
        with RemoteRepository(address, "solo", **client_kwargs) as repo:
            for i, payload in enumerate(streams):
                plan = [(f"stream-{i}.bin", len(payload))]
                repo.backup_blocks(iter([payload]), plan, tag=f"v{i + 1}")
        return time.perf_counter() - started


def test_observability_overhead(benchmark, tmp_path):
    """Per-operation metrics + structured event logging must cost ~nothing
    next to chunking/hashing/container I/O: the instrumented run may be at
    most OVERHEAD_BUDGET slower than best-of-N with everything off."""
    streams = _versions_for(seed=99)
    elapsed = {"on": [], "off": []}

    def run_all():
        # Interleave configurations so drift (thermal, page cache) hits
        # both equally; keep the best run of each.
        for round_no in range(OVERHEAD_ROUNDS):
            with JsonEventLogger(
                str(tmp_path / f"events-{round_no}.jsonl"), source="daemon"
            ) as log:
                elapsed["on"].append(
                    _timed_solo_ingest(
                        str(tmp_path / f"on-{round_no}"),
                        streams,
                        {"metrics": MetricsRegistry(), "event_log": log},
                        {"metrics": MetricsRegistry()},
                    )
                )
            elapsed["off"].append(
                _timed_solo_ingest(
                    str(tmp_path / f"off-{round_no}"),
                    streams,
                    {"metrics": MetricsRegistry(enabled=False)},
                    {"metrics": MetricsRegistry(enabled=False)},
                )
            )
        return len(elapsed["on"])

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    best_on, best_off = min(elapsed["on"]), min(elapsed["off"])
    overhead = best_on / best_off - 1.0
    nbytes = sum(len(s) for s in streams)
    table(
        ["configuration", "best ingest", "throughput"],
        [
            ["metrics + event log", f"{best_on * 1000:.0f} ms",
             f"{nbytes / best_on / MiB:.1f} MB/s"],
            ["observability off", f"{best_off * 1000:.0f} ms",
             f"{nbytes / best_off / MiB:.1f} MB/s"],
        ],
        title=f"Observability overhead — {VERSIONS} versions x "
        f"{VERSION_BYTES / MiB:.0f} MB, best of {OVERHEAD_ROUNDS}",
    )
    emit(f"observability overhead: {overhead:+.1%} (budget {OVERHEAD_BUDGET:.0%})")
    write_bench_json(
        "observability_overhead",
        {
            "rounds": OVERHEAD_ROUNDS,
            "best_on_seconds": best_on,
            "best_off_seconds": best_off,
            "overhead": overhead,
            "budget": OVERHEAD_BUDGET,
        },
    )
    assert overhead <= OVERHEAD_BUDGET
