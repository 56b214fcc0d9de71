"""Replication sync cost: full seed vs incremental O(delta) syncs.

Backs up several versions of a mutating tree, then measures three syncs
to a local mirror directory:

* **seed** — the first sync ships every container;
* **incremental** — one more backup lands, the next sync ships only the
  containers it added and skips every mirrored one still stored (the
  active containers the backup released are deleted on both sides);
* **steady-state** — nothing changed, the sync ships zero objects.

The assertions pin the subsystem's O(delta) contract: work is
proportional to what changed since the last sync, not to repository
size.  A second section measures the same syncs against a mirror daemon
over the loopback wire (framing + digest validation overhead).

Results land in ``BENCH_replication.json`` (see ``common.write_bench_json``).
"""

import os
import random
import time

from common import emit, table, write_bench_json
from repro.observability import MetricsRegistry
from repro.replication import LocalMirror, RemoteMirror, ReplicationSession
from repro.repository import LocalRepository, read_tree
from repro.server import DaemonThread
from repro.storage.repo import RepoStorage
from repro.units import MiB

FILES = 6
FILE_SIZE = 2 * MiB
#: Bytes appended to one file per incremental version.
DELTA = 256 * 1024
VERSIONS = 3


def _write_tree(base: str) -> None:
    os.makedirs(base, exist_ok=True)
    rng = random.Random(1234)
    for i in range(FILES):
        with open(os.path.join(base, f"f{i}.bin"), "wb") as handle:
            handle.write(rng.randbytes(FILE_SIZE))


def _mutate(base: str, seed: int) -> None:
    rng = random.Random(seed)
    with open(os.path.join(base, "f0.bin"), "ab") as handle:
        handle.write(rng.randbytes(DELTA))


def _containers(repo_root: str) -> set:
    storage = RepoStorage(repo_root)
    try:
        return set(storage.state()["containers"])
    finally:
        storage.close()


def _timed_sync(repo_root: str, target, metrics: MetricsRegistry):
    session = ReplicationSession(repo_root, target, journal="", metrics=metrics)
    started = time.perf_counter()
    report = session.run()
    return report, time.perf_counter() - started


def _run_phases(repo_root: str, src: str, make_target, metrics: MetricsRegistry):
    """Seed → incremental → steady-state sync timings against one target."""
    repo = LocalRepository(repo_root)
    for v in range(VERSIONS):
        if v:
            _mutate(src, 900 + v)
        repo.backup_tree(read_tree(src), tag=f"v{v + 1}")

    phases = {}
    target = make_target()
    try:
        phases["seed"] = _timed_sync(repo_root, target, metrics)
        before = _containers(repo_root)
        _mutate(src, 990)
        repo.backup_tree(read_tree(src), tag="delta")
        after = _containers(repo_root)
        phases["incremental"] = _timed_sync(repo_root, target, metrics)
        phases["steady"] = _timed_sync(repo_root, target, metrics)
    finally:
        target.close()

    seed = phases["seed"][0]
    incr = phases["incremental"][0]
    steady = phases["steady"][0]
    assert seed.containers_shipped > 0, "seed sync shipped no containers"
    assert incr.containers_shipped < seed.containers_shipped, (
        "incremental sync re-shipped the whole repository: "
        f"{incr.containers_shipped} vs seed {seed.containers_shipped}"
    )
    assert incr.containers_skipped == len(before & after) > 0, (
        "incremental sync failed to skip already-mirrored containers"
    )
    assert incr.containers_shipped == len(after - before) > 0, (
        "incremental sync did not ship exactly the containers the backup added"
    )
    assert steady.containers_shipped == 0 and steady.objects_shipped == 0, (
        f"steady-state sync shipped {steady.objects_shipped} objects"
    )
    return phases


def _report(title: str, phases) -> dict:
    rows = []
    doc = {}
    for phase in ("seed", "incremental", "steady"):
        rep, seconds = phases[phase]
        rate = rep.bytes_shipped / seconds / MiB if seconds > 0 else 0.0
        rows.append(
            [
                phase,
                rep.containers_shipped,
                rep.containers_skipped,
                f"{rep.bytes_shipped / MiB:.2f} MB",
                f"{seconds * 1000:.1f} ms",
                f"{rate:.0f} MB/s",
            ]
        )
        doc[phase] = {
            "containers_shipped": rep.containers_shipped,
            "containers_skipped": rep.containers_skipped,
            "objects_shipped": rep.objects_shipped,
            "bytes_shipped": rep.bytes_shipped,
            "objects_deleted": rep.objects_deleted,
            "seconds": seconds,
        }
    table(
        ["sync", "shipped", "skipped", "bytes", "time", "rate"],
        rows,
        title=title,
    )
    return doc


def test_replication_sync_local(tmp_path, benchmark):
    src = str(tmp_path / "src")
    _write_tree(src)
    metrics = MetricsRegistry()
    phases = {}

    def run():
        phases.update(
            _run_phases(
                str(tmp_path / "repo"),
                src,
                lambda: LocalMirror(str(tmp_path / "mirror")),
                metrics,
            )
        )
        return len(phases)

    benchmark.pedantic(run, rounds=1, iterations=1)
    doc = _report("Replication sync, local mirror directory", phases)
    doc["metrics"] = metrics.snapshot().get("counters", {})
    # Dimensionless O(delta) ratio for the regression gate: how many times
    # smaller the incremental ship-set is than the seed's.  A drop means
    # incremental syncs started re-shipping unchanged objects.
    doc["seed_over_incremental_shipped"] = (
        phases["seed"][0].objects_shipped
        / max(1, phases["incremental"][0].objects_shipped)
    )
    write_bench_json("replication", doc)


def test_replication_sync_daemon(tmp_path, benchmark):
    src = str(tmp_path / "src")
    _write_tree(src)
    metrics = MetricsRegistry()
    phases = {}

    thread = DaemonThread(str(tmp_path / "srv"))
    address = thread.start()
    try:

        def run():
            phases.update(
                _run_phases(
                    str(tmp_path / "repo"),
                    src,
                    lambda: RemoteMirror(address, "mirror"),
                    metrics,
                )
            )
            return len(phases)

        benchmark.pedantic(run, rounds=1, iterations=1)
    finally:
        thread.stop()
    doc = _report("Replication sync, mirror daemon over loopback", phases)
    write_bench_json("replication_daemon", doc)
    emit()
