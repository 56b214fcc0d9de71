"""Multi-client execution of a compiled chaos schedule.

Tenants are partitioned round-robin across client threads; each client
executes its tenants' operations in schedule order, so the per-tenant op
sequence is deterministic (matching the per-tenant writer-lock
discipline the daemon enforces) while cross-tenant traffic genuinely
interleaves.  Every operation is timed into the ``chaos.op_seconds.*``
histograms and classified: ``ok``, ``skipped`` (precondition not met —
e.g. restore on an empty tenant), ``failed_typed`` (a
:class:`~repro.errors.ReproError` subclass: the contract every client
surface promises) or ``failed_untyped`` (anything else — an invariant
violation by itself).

Each client thread also owns the fault events pinned to its ops: a fault
is injected just before its site op runs and its recovery action (repair
from mirror, node restart, partition heal) runs just after — or never,
when the scenario says ``"recover": false`` (the negative control).

The driver keeps a :class:`TenantModel` per tenant — the expected
version list with content digests recorded at backup time — which is
what the invariant checker replays reality against.
"""

from __future__ import annotations

import hashlib
import os
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import ReproError, RestoreError, StorageError
from ..observability import MetricsRegistry, get_registry
from ..repository import read_tree
from .deploy import Deployment
from .faults import FaultController, WireCorruptingMirror, flip_container_byte
from .scenario import FaultEvent, Schedule, ScheduledOp, TenantSpec

__all__ = ["TenantModel", "OpResult", "Driver", "execute_op"]


@dataclass
class OpResult:
    index: int
    phase: str
    tenant: str
    kind: str
    status: str  # ok | skipped | failed_typed | failed_untyped
    seconds: float
    error: Optional[str] = None

    def as_doc(self) -> Dict:
        doc = {
            "index": self.index,
            "phase": self.phase,
            "tenant": self.tenant,
            "kind": self.kind,
            "status": self.status,
            "seconds": round(self.seconds, 6),
        }
        if self.error:
            doc["error"] = self.error
        return doc


class TenantModel:
    """What the driver believes one tenant's repository holds.

    ``versions`` carries ``{"id", "digest"}`` rows recorded at backup
    time (digest = sha256 of the backed-up tree's concatenated bytes in
    manifest order — exactly what a full restore streams back).  The
    per-tenant ``rng`` is seeded from (scenario seed, tenant name), so
    tree contents and mutation order are reproducible.
    """

    def __init__(self, spec: TenantSpec, tree_dir: str, seed: int) -> None:
        self.spec = spec
        self.tree_dir = tree_dir
        self.rng = random.Random(f"{seed}:{spec.name}")
        self.versions: List[Dict] = []
        self.deleted: List[int] = []
        #: Version ids the mirror held after the last successful sync
        #: (None until the first replicate), plus their digests.
        self.mirror_expected: Optional[List[int]] = None
        self.mirror_digests: Dict[int, str] = {}
        #: Digest of a backup whose outcome is unknown (killed mid-op).
        self.pending: Optional[Dict] = None
        #: Version id of a delete whose outcome is unknown (the server
        #: may have committed it before the connection died).
        self.pending_delete: Optional[int] = None
        #: The last replicate attempt failed mid-sync: the mirror may
        #: legitimately hold ``*.staged`` leftovers until the next sync.
        self.mirror_dirty = False
        #: Next replicate ships one container corrupted in transit.
        self.corrupt_next_replicate = False
        self._initialized = False

    # -- source tree -----------------------------------------------------
    def mutate_tree(self) -> None:
        """Create the tree on first call; churn a subset afterwards."""
        os.makedirs(self.tree_dir, exist_ok=True)
        size = self.spec.file_kb * 1024
        if not self._initialized:
            for i in range(self.spec.files):
                self._write_file(i, size)
            self._initialized = True
            return
        churn = max(1, int(round(self.spec.churn * self.spec.files)))
        for i in sorted(self.rng.sample(range(self.spec.files), churn)):
            jitter = 0.75 + 0.5 * self.rng.random()
            self._write_file(i, max(1024, int(size * jitter)))

    def _write_file(self, index: int, size: int) -> None:
        path = os.path.join(self.tree_dir, f"f{index:02d}.bin")
        with open(path, "wb") as handle:
            handle.write(self.rng.randbytes(size))

    def tree_digest(self) -> str:
        sha = hashlib.sha256()
        for _rel, path in read_tree(self.tree_dir):
            with open(path, "rb") as handle:
                sha.update(handle.read())
        return sha.hexdigest()

    def version_ids(self) -> List[int]:
        return [v["id"] for v in self.versions]

    def digest_of(self, version_id: int) -> Optional[str]:
        for v in self.versions:
            if v["id"] == version_id:
                return v["digest"]
        return None


def drain_digest(stream) -> str:
    """Consume a restore stream, returning the sha256 of its bytes."""
    sha = hashlib.sha256()
    for block in stream:
        sha.update(block)
    return sha.hexdigest()


def execute_op(op: ScheduledOp, model: TenantModel, repo) -> str:
    """Run one pure client op against ``repo``, keeping ``model`` in step.

    Returns ``"ok"`` or ``"skipped"`` (precondition not met); a mismatch
    between reality and the model raises a typed error.
    """
    if op.kind == "backup":
        model.mutate_tree()
        digest = model.tree_digest()
        entries = read_tree(model.tree_dir)
        model.pending = {"digest": digest}
        report = repo.backup_tree(entries, tag=f"op-{op.index:05d}")
        model.versions.append({"id": report["version_id"], "digest": digest})
        model.pending = None
        return "ok"
    if op.kind == "restore":
        if not model.versions:
            return "skipped"
        pick = op.params.get("pick", "latest")
        if pick == "latest" or len(model.versions) == 1:
            row = model.versions[-1]
        else:
            row = model.rng.choice(model.versions)
        _plan, stream = repo.restore(row["id"], verify=True)
        if drain_digest(stream) != row["digest"]:
            raise RestoreError(
                f"restored bytes of {op.tenant} v{row['id']} do not match "
                f"the driver's recorded content digest"
            )
        return "ok"
    if op.kind == "verify":
        if not model.versions:
            return "skipped"
        report = repo.verify(deep=bool(op.params.get("deep", False)))
        if not report.get("ok", False):
            raise StorageError(
                f"verify reported issues on {op.tenant}: "
                f"{report.get('summary', 'no summary')}"
            )
        return "ok"
    if op.kind == "delete":
        if len(model.versions) < 2:
            return "skipped"
        # The server may commit the delete and then die before replying
        # (a kill's blast radius covers every in-flight op, not just the
        # victim tenant's); record the candidate so a failure reconciles.
        model.pending_delete = model.versions[0]["id"]
        repo.delete_oldest()
        removed = model.versions.pop(0)
        model.deleted.append(removed["id"])
        model.pending_delete = None
        return "ok"
    raise StorageError(f"unknown scheduled op kind {op.kind!r}")


class Driver:
    """Execute one schedule phase at a time against a deployment."""

    def __init__(
        self,
        schedule: Schedule,
        deployment: Deployment,
        controller: FaultController,
        models: Dict[str, TenantModel],
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.schedule = schedule
        self.deployment = deployment
        self.controller = controller
        self.models = models
        self.metrics = metrics if metrics is not None else get_registry()
        self.results: List[OpResult] = []
        self.fault_log: List[Dict] = []
        #: Node labels restarted during the current phase (clean-resume
        #: invariant trigger) and the lock guarding shared mutable state.
        self.restarted_this_phase: List[str] = []
        self._lock = threading.Lock()
        tenants = [t.name for t in schedule.tenants]
        clients = max(1, min(schedule.clients, len(tenants)))
        self._assignment: List[List[str]] = [
            tenants[i::clients] for i in range(clients)
        ]

    # ------------------------------------------------------------------
    def run_phase(self, phase: str) -> List[OpResult]:
        """Run every op of one phase; returns that phase's results."""
        self.restarted_this_phase = []
        phase_ops = self.schedule.phase_ops(phase)
        before = len(self.results)
        threads = []
        errors: List[BaseException] = []

        def client(my_tenants: List[str]) -> None:
            try:
                for op in phase_ops:
                    if op.tenant in my_tenants:
                        self._run_op(op)
            except BaseException as exc:  # harness bug, not workload noise
                errors.append(exc)

        for my_tenants in self._assignment:
            mine = [t for t in my_tenants if any(op.tenant == t for op in phase_ops)]
            if not mine and len(self._assignment) > 1:
                continue
            thread = threading.Thread(
                target=client, args=(my_tenants,), name=f"chaos-client", daemon=True
            )
            threads.append(thread)
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        self._end_of_phase(phase)
        return self.results[before:]

    def _end_of_phase(self, phase: str) -> None:
        # Disarm directives that never found a matching operation (e.g. an
        # ENOSPC pinned to a tenant that ran no further container writes) —
        # a fault must not leak into the invariant checks or the next phase.
        leftovers = self.controller.armed_count()
        if leftovers:
            self.controller.disarm_all()
            self.fault_log.append(
                {"phase": phase, "event": "disarmed_untriggered", "count": leftovers}
            )
        # Resolve backups/deletes whose outcome a kill left ambiguous.
        for tenant, model in self.models.items():
            if model.pending is not None or model.pending_delete is not None:
                self._reconcile(tenant, model)

    # ------------------------------------------------------------------
    # One operation (with its pinned faults)
    # ------------------------------------------------------------------
    def _run_op(self, op: ScheduledOp) -> None:
        model = self.models[op.tenant]
        faults = self.schedule.faults_at(op.index)
        kill_state: Dict = {}
        for fault in faults:
            self._inject(fault, op, model, kill_state)
        started = time.perf_counter()
        status, error = "ok", None
        try:
            outcome = self._execute(op, model)
            if outcome == "skipped":
                status = "skipped"
        except ReproError as exc:
            status, error = "failed_typed", f"{type(exc).__name__}: {exc}"
        except Exception as exc:
            status, error = "failed_untyped", f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - started
        if op.kind == "delete" and status == "failed_typed":
            self._reconcile(op.tenant, model)
        self.metrics.inc("chaos.ops_total")
        self.metrics.inc(f"chaos.ops_{status}")
        self.metrics.observe(f"chaos.op_seconds.{op.kind}", elapsed)
        with self._lock:
            self.results.append(
                OpResult(op.index, op.phase, op.tenant, op.kind, status, elapsed, error)
            )
        for fault in faults:
            self._recover(fault, op, model, kill_state)

    # ------------------------------------------------------------------
    # Op executors
    # ------------------------------------------------------------------
    def _execute(self, op: ScheduledOp, model: TenantModel) -> str:
        if op.kind == "replicate":
            return self._do_replicate(op, model)
        if op.kind == "repair":
            return self._do_repair(op, model)
        return execute_op(op, model, self.deployment.repo(op.tenant))

    def _do_replicate(self, op: ScheduledOp, model: TenantModel) -> str:
        if not model.versions:
            return "skipped"
        from ..replication.session import ReplicationSession

        target = self.deployment.mirror_target(op.tenant)
        if model.corrupt_next_replicate:
            model.corrupt_next_replicate = False
            target = WireCorruptingMirror(target, self.controller)
        try:
            ReplicationSession(
                self.deployment.tenant_root(op.tenant), target, journal=""
            ).run()
            model.mirror_expected = model.version_ids()
            model.mirror_digests = {
                v["id"]: v["digest"] for v in model.versions
            }
            model.mirror_dirty = False
        except BaseException:
            # A sync that died mid-ship may leave staged objects on the
            # mirror; they are legitimate until the next sync commits.
            model.mirror_dirty = True
            raise
        finally:
            target.close()
        return "ok"

    def _do_repair(self, op: ScheduledOp, model: TenantModel) -> str:
        if model.mirror_expected is None:
            return "skipped"
        self._repair_tenant(op.tenant)
        return "ok"

    def _repair_tenant(self, tenant: str) -> Dict:
        from ..replication.repair import repair_from_mirror

        mirror = self.deployment.mirror_target(tenant)
        try:
            report = repair_from_mirror(
                self.deployment.tenant_root(tenant), mirror, deep=True,
                metrics=self.metrics,
            )
        finally:
            mirror.close()
        self.deployment.invalidate(tenant)
        return report.as_dict()

    # ------------------------------------------------------------------
    # Fault injection / recovery
    # ------------------------------------------------------------------
    def _tenant_url_fragment(self, tenant: str) -> str:
        # Backend URLs embed the tenant root path; matching on the path
        # (with separators) pins a directive to exactly one tenant.
        return os.sep + tenant

    def _note(self, fault: FaultEvent, event: str, **detail) -> None:
        with self._lock:
            self.fault_log.append(
                {"kind": fault.kind, "op_index": fault.op_index,
                 "tenant": fault.tenant, "event": event, **detail}
            )

    def _inject(
        self, fault: FaultEvent, op: ScheduledOp, model: TenantModel, kill_state: Dict
    ) -> None:
        frag = self._tenant_url_fragment(op.tenant)
        if fault.kind == "enospc":
            self.controller.arm(
                "enospc", op="put", match_url=frag, match_name="container"
            )
            self._note(fault, "armed")
        elif fault.kind == "torn_write":
            self.controller.arm(
                "torn_write", op="put", match_url=frag, match_name="container"
            )
            self._note(fault, "armed")
        elif fault.kind == "latency":
            self.controller.arm(
                "latency",
                match_url=frag,
                count=int(fault.params.get("count", 6)),
                seconds=float(fault.params.get("seconds", 0.02)),
            )
            self._note(fault, "armed")
        elif fault.kind == "corrupt_transit":
            model.corrupt_next_replicate = True
            self._note(fault, "armed")
        elif fault.kind == "bitflip":
            self._inject_bitflip(fault, op, model)
        elif fault.kind == "kill_primary":
            self._inject_kill(fault, op, kill_state)
        elif fault.kind == "partition_mirror":
            self.deployment.partition_mirror()
            self.controller.note_injected("partition_mirror", tenant=op.tenant)
            self._note(fault, "injected")

    def _inject_bitflip(
        self, fault: FaultEvent, op: ScheduledOp, model: TenantModel
    ) -> None:
        """Corrupt a sealed container at rest.

        With recovery enabled the victim is drawn only from containers
        the mirror also holds, so ``repair --from-mirror`` can actually
        heal it; the negative control draws from everything, modelling
        corruption that outran replication.
        """
        root = self.deployment.tenant_root(op.tenant)
        candidates = None
        if fault.recover and model.mirror_expected is not None:
            mirror_dir = os.path.join(
                self.deployment.mirror_root(op.tenant), "containers"
            )
            try:
                mirrored = set(os.listdir(mirror_dir))
            except OSError:
                mirrored = set()
            try:
                local = set(os.listdir(os.path.join(root, "containers")))
            except OSError:
                local = set()
            candidates = sorted(
                n for n in (local & mirrored) if n.endswith(".hdsc")
            )
        try:
            if candidates is not None:
                if not candidates:
                    self._note(fault, "skipped", reason="no mirrored container")
                    return
                name = model.rng.choice(candidates)
                path = os.path.join(root, "containers", name)
                with open(path, "r+b") as handle:
                    offset = os.path.getsize(path) // 2
                    handle.seek(offset)
                    byte = handle.read(1)
                    handle.seek(offset)
                    handle.write(bytes([byte[0] ^ 0xFF]))
                self.controller.note_injected("bitflip", name=f"containers/{name}")
            else:
                flip_container_byte(root, rng=model.rng, controller=self.controller)
        except StorageError as exc:
            self._note(fault, "skipped", reason=str(exc))
            return
        self.deployment.invalidate(op.tenant)
        self._note(fault, "injected")

    def _inject_kill(
        self, fault: FaultEvent, op: ScheduledOp, kill_state: Dict
    ) -> None:
        """SIGKILL the tenant's primary mid-operation.

        A trigger directive fires on the tenant's next container write
        (so a backup dies with a container genuinely in flight); a killer
        thread waits on that trigger — with a timeout fallback so the
        fault still happens when the site op never writes a container.
        """
        trigger = threading.Event()
        done = threading.Event()

        def killer() -> None:
            trigger.wait(timeout=2.0)
            try:
                label = self.deployment.kill_primary(fault.tenant)
                kill_state["label"] = label
                self.controller.note_injected(
                    "kill_primary", tenant=fault.tenant, node=label
                )
                self._note(fault, "injected", node=label)
            except ReproError as exc:
                self._note(fault, "skipped", reason=str(exc))
            finally:
                done.set()

        kill_state["done"] = done
        self.controller.arm(
            "trigger",
            op="put",
            match_url=self._tenant_url_fragment(fault.tenant),
            match_name="container",
            callback=lambda _url, _name: trigger.set(),
        )
        threading.Thread(target=killer, name="chaos-killer", daemon=True).start()

    def _recover(
        self, fault: FaultEvent, op: ScheduledOp, model: TenantModel, kill_state: Dict
    ) -> None:
        if fault.kind == "bitflip":
            if fault.recover:
                try:
                    report = self._repair_tenant(op.tenant)
                    self._note(fault, "repaired", report=report)
                except ReproError as exc:
                    self._note(fault, "repair_failed", reason=str(exc))
        elif fault.kind == "kill_primary":
            done = kill_state.get("done")
            if done is not None:
                done.wait(timeout=30.0)
            label = kill_state.get("label")
            if fault.recover and label is not None:
                self.deployment.restart(label)
                with self._lock:
                    self.restarted_this_phase.append(label)
                self._note(fault, "restarted", node=label)
            self._reconcile(op.tenant, model)
        elif fault.kind == "partition_mirror":
            if fault.recover:
                self.deployment.heal_mirror()
                self._note(fault, "healed")

    # ------------------------------------------------------------------
    def _reconcile(self, tenant: str, model: TenantModel) -> None:
        """Resolve ops whose outcome a connection loss left ambiguous.

        An interrupted backup either committed (its version id appears on
        the repository) or rolled back (no trace); the intended content
        digest was recorded before the attempt, so a committed survivor
        gets its digest attached.  An interrupted delete either removed
        the oldest version or did nothing — the repository is authority
        for exactly that one version id.
        """
        if model.pending is None and model.pending_delete is None:
            return
        try:
            rows = self.deployment.repo(tenant).versions()
        except ReproError:
            return  # still unreachable; the invariant checker will report
        actual = [row["version_id"] for row in rows]
        if model.pending_delete is not None:
            if (
                model.versions
                and model.versions[0]["id"] == model.pending_delete
                and model.pending_delete not in actual
            ):
                removed = model.versions.pop(0)
                model.deleted.append(removed["id"])
            model.pending_delete = None
        if model.pending is not None:
            known = set(model.version_ids())
            new = [vid for vid in actual if vid not in known]
            if len(new) == 1:
                model.versions.append(
                    {"id": new[0], "digest": model.pending["digest"]}
                )
            model.pending = None
