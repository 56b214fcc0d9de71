"""One pass of one workload: set-up, the timed steps, the metrics.

A pass is a closed loop: every client sends its next operation only after
the previous one returned.  The three local workloads have one client;
``cluster-mixed`` has ``min(2, nproc)`` client threads, one tenant each.

Every workload runs the same *step* over a sliding window of retained
versions, so the repository is in steady state and steps are comparable::

    generate the next version per tenant          (untimed)
    backup it                                     (timed)
    R rounds of restore newest / oldest / one file of the oldest
                                                  (timed, SHA-256 checked)
    delete_oldest                                 (timed)
    cluster only: sync_all                        (timed)
    every V-th step: verify(deep=True)            (timed, must report ok)

The workloads differ in what the bytes share with the previous version, in
R, in the window and in the deployment; that is what moves work between
layers.  An untraced pass repeats steps until ``--seconds`` have passed and
always finishes ``exact_steps`` of them; metrics that are counts
(``speed_factor_*``, ``stored_per_logical``) are taken over exactly those
steps, so they do not depend on how fast the machine is.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Tuple

from wf_deploy import ClusterDeployment, LocalDeployment
from wf_gen import GenParams, MiB, Version, VersionStream
from wf_layers import layer_metrics
from wf_spans import Recorder, install_layer_wraps

#: Set-ups per untraced pass; ``setup_s`` is their median.
SETUPS = 3

#: Index of the plan file the single-file restore fetches.
PARTIAL_FILE = 3

#: Untraced steps a traced pass runs first, as the base of
#: ``trace.overhead_ratio``.
REFERENCE_STEPS = 4


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    deployment: str  # "local" or "cluster"
    fresh: bool  # every version is new bytes (no duplicates)
    retained: int  # versions in the sliding window; set-up builds them
    restore_rounds: int  # R
    verify_every: int  # V
    exact_steps: int  # steps every untraced pass completes
    traced_steps: int  # steps a traced pass records
    tenants: int = 1


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="ingest-incremental",
        why="evolved versions: most chunks are duplicates, so chunking and the "
        "fingerprint cache do the work and storage little",
        deployment="local", fresh=False, retained=4, restore_rounds=1,
        verify_every=4, exact_steps=16, traced_steps=16,
    ),
    Workload(
        name="ingest-fresh",
        why="all-new bytes: every chunk is unique and the previous version goes "
        "cold, so container seal, demotion and recipe writes dominate",
        deployment="local", fresh=True, retained=2, restore_rounds=1,
        verify_every=8, exact_steps=8, traced_steps=8,
    ),
    Workload(
        name="restore-aged",
        why="an eight-version aged window read far more than written: restore "
        "engine, recipe-chain flatten and container reads do the work",
        deployment="local", fresh=False, retained=8, restore_rounds=8,
        verify_every=4, exact_steps=8, traced_steps=8,
    ),
    Workload(
        name="cluster-mixed",
        why="three daemons, replicas=2, two tenants: client, server, shared "
        "ingest pool, routing and replica sync that no local workload touches",
        deployment="cluster", fresh=False, retained=3, restore_rounds=3,
        verify_every=4, exact_steps=8, traced_steps=8, tenants=2,
    ),
)

WORKLOAD_BY_NAME = {workload.name: workload for workload in WORKLOADS}

#: (name, unit, better) of every end-to-end metric; every workload reports all.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("backup_mbps", "MiB/s", "higher"),
    ("backup_p10_s", "s", "lower"),
    ("restore_newest_mbps", "MiB/s", "higher"),
    ("restore_oldest_mbps", "MiB/s", "higher"),
    ("restore_file_p10_s", "s", "lower"),
    ("speed_factor_newest", "MiB/read", "higher"),
    ("speed_factor_oldest", "MiB/read", "higher"),
    ("stored_per_logical", "ratio", "lower"),
    ("delete_oldest_p10_s", "s", "lower"),
    ("verify_deep_mbps", "MiB/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
)

#: Timing samples an untraced pass keeps, by operation kind.
KINDS = (
    "backup", "restore_newest", "restore_oldest", "restore_file",
    "delete", "verify", "sync",
)


class _Tenant:
    """One client's view: its stream, its repository, what it has stored."""

    def __init__(self, name: str, stream: VersionStream, repo) -> None:
        self.name = name
        self.stream = stream
        self.repo = repo
        #: version id -> generated version (blocks dropped once backed up).
        self.known: Dict[int, Version] = {}
        #: SHA-256 of every version backed up, in order.
        self.digests: List[str] = []
        self.pending: Optional[Version] = None


class Pass:
    """State and accounting of one pass over one workload."""

    def __init__(
        self,
        workload: Workload,
        seed: int,
        params: GenParams,
        workdir: str,
        quick: bool = False,
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.params = params
        self.workdir = workdir
        self.quick = quick
        self.exact_steps = max(2, workload.exact_steps // 4) if quick else workload.exact_steps
        self.traced_steps = max(2, workload.traced_steps // 4) if quick else workload.traced_steps
        self.verify_every = min(workload.verify_every, self.exact_steps)
        self.clients = min(workload.tenants, min(2, os.cpu_count() or 1))

        self.deployment = None
        self.tenants: List[_Tenant] = []
        self.recorder: Optional[Recorder] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._lock = threading.Lock()

        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.samples: Dict[str, List[float]] = {kind: [] for kind in KINDS}
        #: Seconds per logical MiB of each deep verify.
        self.verify_s_per_mib: List[float] = []
        #: Wall seconds of each step's backup phase (all clients together).
        self.backup_phases: List[float] = []
        self.backup_bytes = 0
        self.calibration: List[float] = []
        self.steps_done = 0
        #: Summed operation seconds, verify excluded (see ``step``).
        self._op_seconds = 0.0
        #: [MiB restored, container reads] over the exact steps.
        self.speed = {"restore_newest": [0.0, 0], "restore_oldest": [0.0, 0]}
        self.stored_per_logical = 0.0
        self.raw: Dict[str, float] = {}
        self.machine_factor = 1.0

    # ------------------------------------------------------------------
    # Set-up and tear-down
    # ------------------------------------------------------------------
    def set_up(self, index: int) -> float:
        """Build a fresh deployment holding the retained window; seconds taken.

        Generation, daemon start and the cluster warm-up are all inside the
        clock: work a later change moves into set-up must show here.
        """
        self.tear_down()
        root = os.path.join(self.workdir, f"setup-{index}")
        started = time.perf_counter()
        workload = self.workload
        if workload.deployment == "cluster":
            self.deployment = ClusterDeployment(
                root, self.seed, nodes=3, replicas=2, tenants=workload.tenants
            )
            self.deployment.warm_up(self.params)
        else:
            self.deployment = LocalDeployment(root)
        self.tenants = [
            _Tenant(
                name,
                VersionStream(self.seed, f"{workload.name}/{i}", self.params, workload.fresh),
                self.deployment.repo(i),
            )
            for i, name in enumerate(self.deployment.tenants)
        ]
        for _ in range(workload.retained):
            for tenant in self.tenants:
                version = tenant.stream.next()
                report = tenant.repo.backup_blocks(list(version.blocks), list(version.plan))
                self._remember(tenant, report["version_id"], version)
        if workload.deployment == "cluster":
            self.deployment.sync_all()
        if self.clients > 1:
            self._pool = ThreadPoolExecutor(max_workers=self.clients)
        return time.perf_counter() - started

    def tear_down(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self.deployment is not None:
            self.deployment.close()
            self.deployment = None

    def _remember(self, tenant: _Tenant, version_id: int, version: Version) -> None:
        tenant.known[version_id] = dataclasses.replace(version, blocks=())
        tenant.digests.append(version.digest)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def _each(self, work: Callable[[_Tenant], None]) -> None:
        if self._pool is None:
            for tenant in self.tenants:
                work(tenant)
        else:
            # Reading every result re-raises what a client thread raised.
            list(self._pool.map(work, self.tenants))

    def _fail(self, kind: str, detail: str) -> None:
        with self._lock:
            self.failed += 1
            self.failures.append(f"{kind}: {detail}")
        print(f"waterfall: FAILED {kind}: {detail}", file=sys.stderr)

    def _op(self, kind: str, run: Callable[[], object]) -> Tuple[bool, object, float]:
        """Time one operation; a raised error is a failed operation."""
        with self._lock:
            self.attempted += 1
        root = (
            self.recorder.root("repository." + kind)
            if self.recorder is not None
            else contextlib.nullcontext()
        )
        started = time.perf_counter()
        try:
            with root:
                result = run()
        except Exception as exc:  # boundary: count the failure, keep the pass going
            traceback.print_exc(file=sys.stderr)
            self._fail(kind, f"{type(exc).__name__}: {exc}")
            return False, None, 0.0
        elapsed = time.perf_counter() - started
        with self._lock:
            self.samples[kind].append(elapsed)
            if kind != "verify":
                self._op_seconds += elapsed
        return True, result, elapsed

    def _backup(self, tenant: _Tenant) -> None:
        version = tenant.pending
        blocks, plan = list(version.blocks), list(version.plan)
        ok, report, _ = self._op(
            "backup", lambda: tenant.repo.backup_blocks(blocks, plan)
        )
        if ok:
            self._remember(tenant, report["version_id"], version)
            with self._lock:
                self.backup_bytes += version.size
        tenant.pending = None

    def _restore(self, tenant: _Tenant, kind: str, version_id: int, exact: bool) -> None:
        expected = tenant.known[version_id]
        file_name = None
        want, size = expected.digest, expected.size
        if kind == "restore_file":
            file_name, size = expected.plan[PARTIAL_FILE]
            want = expected.file_digests[PARTIAL_FILE]
        counted = exact and kind in self.speed
        reads_before = tenant.repo.stats()["containers_read"] if counted else 0

        def run() -> List[bytes]:
            _plan, data = tenant.repo.restore(version_id, file=file_name)
            return list(data)

        ok, blocks, _ = self._op(kind, run)
        if not ok:
            return
        reads = tenant.repo.stats()["containers_read"] - reads_before if counted else 0
        digest = hashlib.sha256()
        for block in blocks:
            digest.update(block)
        if digest.hexdigest() != want:
            self._fail(kind, f"digest mismatch restoring version {version_id} of {tenant.name}")
            return
        if counted:
            with self._lock:
                self.speed[kind][0] += size / MiB
                self.speed[kind][1] += reads

    def _restores(self, tenant: _Tenant, exact: bool) -> None:
        versions = sorted(tenant.known)
        newest, oldest = versions[-1], versions[0]
        self._restore(tenant, "restore_newest", newest, exact)
        self._restore(tenant, "restore_oldest", oldest, exact)
        self._restore(tenant, "restore_file", oldest, exact)

    def _delete(self, tenant: _Tenant) -> None:
        ok, report, _ = self._op("delete", tenant.repo.delete_oldest)
        if ok:
            tenant.known.pop(report["version_id"], None)

    def _verify(self, tenant: _Tenant) -> None:
        logical = tenant.repo.stats()["logical_bytes"]
        ok, report, elapsed = self._op("verify", lambda: tenant.repo.verify(deep=True))
        if not ok:
            return
        if not report["ok"]:
            self._fail("verify", f"{tenant.name}: {report['summary']}")
            return
        self.verify_s_per_mib.append(elapsed / (logical / MiB))

    def step(self) -> float:
        """Run one step; returns its summed operation seconds.

        Verify is left out of the sum: it runs on some steps only, and the
        sum is what ``trace.overhead_ratio`` compares between steps.
        """
        index = self.steps_done
        exact = index < self.exact_steps
        before = self._op_seconds
        for tenant in self.tenants:
            tenant.pending = tenant.stream.next()
        self.calibration.append(calibrate())
        bytes_before = self.backup_bytes
        started = time.perf_counter()
        self._each(self._backup)
        if self.backup_bytes - bytes_before == self.params.version_bytes * len(self.tenants):
            self.backup_phases.append(time.perf_counter() - started)
        self.calibration.append(calibrate())
        for _ in range(self.workload.restore_rounds):
            self._each(lambda tenant: self._restores(tenant, exact))
        self.calibration.append(calibrate())
        self._each(self._delete)
        if self.workload.deployment == "cluster":
            self._op("sync", self.deployment.sync_all)
        spent = self._op_seconds - before
        if (index + 1) % self.verify_every == 0:
            # One tenant after another: verify is maintenance, and two at
            # once on a small box time each other's interference.
            for tenant in self.tenants:
                self._verify(tenant)
        self.steps_done += 1
        if self.steps_done == self.exact_steps:
            stats = [tenant.repo.stats() for tenant in self.tenants]
            self.stored_per_logical = (
                sum(s["stored_bytes"] for s in stats) / sum(s["logical_bytes"] for s in stats)
            )
        return spent

    # ------------------------------------------------------------------
    # Untraced pass: the end-to-end metrics
    # ------------------------------------------------------------------
    def run_untraced(self, seconds: float) -> Dict[str, float]:
        setups = [self.set_up(i) for i in range(1 if self.quick else SETUPS)]
        deadline = time.perf_counter() + seconds
        while self.steps_done < self.exact_steps or time.perf_counter() < deadline:
            self.step()
        self.tear_down()
        return self.end_to_end(setups)

    def end_to_end(self, setups: List[float]) -> Dict[str, float]:
        """The end-to-end metrics of an untraced pass.

        Timings are the fast decile (:func:`p10`) of their samples, not the
        median, and are then scaled by the pass's machine factor: see the
        README's "Why the 10th percentile" and "Speed normalisation".  The
        values as timed stay in ``self.raw``.
        """
        version_mib = self.params.version_bytes / MiB
        samples = self.samples
        missing = [kind for kind in KINDS
                   if not samples[kind] and (kind != "sync" or self.workload.deployment == "cluster")]
        if missing or not self.verify_s_per_mib or not self.backup_phases:
            raise RuntimeError(f"no successful sample of: {missing or 'verify/backup'}")
        self.raw = {
            "setup_s": statistics.median(setups),
            "backup_mbps": version_mib * len(self.tenants) / p10(self.backup_phases),
            "backup_p10_s": p10(samples["backup"]),
            "restore_newest_mbps": version_mib / p10(samples["restore_newest"]),
            "restore_oldest_mbps": version_mib / p10(samples["restore_oldest"]),
            "restore_file_p10_s": p10(samples["restore_file"]),
            "speed_factor_newest": _ratio(*self.speed["restore_newest"]),
            "speed_factor_oldest": _ratio(*self.speed["restore_oldest"]),
            "stored_per_logical": self.stored_per_logical,
            "delete_oldest_p10_s": p10(samples["delete"]),
            "verify_deep_mbps": 1.0 / p10(self.verify_s_per_mib),
            "peak_rss_mb": peak_rss_mb(),
        }
        # Seconds as the reference machine state would have measured them.
        self.machine_factor = CALIBRATION_REFERENCE_S / p10(self.calibration)
        scale = {"s": self.machine_factor, "MiB/s": 1.0 / self.machine_factor}
        return {
            name: self.raw[name] * scale.get(unit, 1.0) for name, unit, _better in END_TO_END
        }

    def version_digests(self) -> Dict[str, List[str]]:
        """Per tenant, the digests of the versions every pass generates."""
        fixed = self.workload.retained + self.exact_steps
        return {tenant.name: tenant.digests[:fixed] for tenant in self.tenants}

    def cleanup(self) -> None:
        """Stop whatever is still running and remove the pass's files."""
        try:
            self.tear_down()
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)

    # ------------------------------------------------------------------
    # Traced pass: the per-layer metrics
    # ------------------------------------------------------------------
    def run_traced(self) -> Tuple[Dict[str, float], Recorder]:
        """Reference steps untraced, then ``traced_steps`` under the recorder.

        Fixed work rather than fixed time, so every count repeats exactly.
        """
        self.set_up(0)
        self.exact_steps = 0  # the exact metrics belong to the untraced pass
        reference = [self.step() for _ in range(REFERENCE_STEPS)]
        for kind in KINDS:
            self.samples[kind].clear()
        self.backup_bytes = 0

        cluster = self.workload.deployment == "cluster"
        server_before = self.deployment.server_metrics() if cluster else {}
        client_before = self.deployment.client_metrics() if cluster else {}
        recorder = Recorder()
        if not cluster:
            # Daemons are other processes; their layers are read from their
            # registries instead of being patched here.
            install_layer_wraps(recorder)
        self.recorder = recorder
        try:
            traced = [self.step() for _ in range(self.traced_steps)]
        finally:
            recorder.uninstall()
            self.recorder = None
        server = _delta(self.deployment.server_metrics(), server_before) if cluster else {}
        client = _delta(self.deployment.client_metrics(), client_before) if cluster else {}
        active = sum(t.repo.stats()["containers_active"] for t in self.tenants)
        self.tear_down()

        metrics = layer_metrics(
            recorder=recorder,
            server=server,
            client=client,
            logical_bytes=self.backup_bytes,
            restores=sum(len(self.samples[k]) for k in
                         ("restore_newest", "restore_oldest", "restore_file")),
            active_containers=active,
        )
        metrics["trace.overhead_ratio"] = (
            statistics.median(traced) / statistics.median(reference) - 1.0
        )
        # The same operations, timed once by the recorder and once by _op.
        metrics["trace.roots_over_wall"] = sum(
            span.busy for span in recorder.roots()
        ) / sum(sum(self.samples[kind]) for kind in KINDS)
        return metrics, recorder


#: What :func:`calibrate` took (p10) on the sizing runs of the box this
#: benchmark was written on; only the ratio to it matters.
CALIBRATION_REFERENCE_S = 0.0065

_CALIBRATION_BUFFER = bytes(range(256)) * (4 * MiB // 256)


def calibrate() -> float:
    """Seconds a fixed mix of hashing, copying and object churn takes now.

    It runs no code of the program under test, so only the machine's state
    can change it.
    """
    started = time.perf_counter()
    hashlib.sha1(_CALIBRATION_BUFFER).digest()
    pieces = [_CALIBRATION_BUFFER[i : i + 8192] for i in range(0, 4 * MiB, 8192)]
    b"".join(pieces)
    json.dumps({str(i): [i, str(i)] for i in range(2000)})
    return time.perf_counter() - started


def p10(samples: List[float]) -> float:
    """The 10th percentile of timing samples; the fastest of fewer than ten."""
    return sorted(samples)[len(samples) // 10]


def _delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {key: value - before.get(key, 0.0) for key, value in after.items()}


def _ratio(numerator: float, denominator: float) -> float:
    if not denominator:
        raise RuntimeError("no container reads were counted for a restore")
    return numerator / denominator


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0
