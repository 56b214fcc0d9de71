"""One tenant copy: :func:`sync` runs one plan from a source endpoint to a
target endpoint.

Every copy of a tenant goes through :func:`sync` — ``hidestore replicate``
and the cluster's replica sync (:class:`ReplicationSession`), the demoted
node's failover pull (:func:`~repro.cluster.failover.pull_tenant`) and the
rebalance move (:class:`~repro.cluster.rebalance.ClusterRebalancer`) — so
they share one order and one set of checks:

1. read each endpoint's state once (a daemon tenant's identity rides on
   the same ``REPLICATE_STATE`` reply) and refuse two endpoints that are
   one repository (self-sync);
2. diff them (:class:`SyncPlanner`);
3. ship the delta in the plan's order: fetch each object from the source,
   check it against the source's state — its size always, its digest
   where the state carries one — and land it on the target: containers,
   manifests and checkpoint parts straight into place (atomic per object,
   invisible until a recipe or the checkpoint head names them), recipes
   and the checkpoint head as staged files;
4. commit: flip staged objects live and apply expirations.

The caller guarantees no writer mutates the source meanwhile (the daemon
holds the tenant's reader lock, the CLI owns the directory); a mutation
between state and fetch is caught by the check in step 3.

Crash safety: every landed object is ``*.tmp`` + rename, staged objects
survive a mirror restart, and the commit is idempotent — so a sync killed
at *any* point leaves the target serving exactly its previous consistent
state, and simply re-running the sync resumes it: the fresh diff skips
every container that already made it (reported as ``containers_skipped``).

:class:`ReplicationSession` adds a journal (one JSON-lines file per target
under ``<source>/.replication/``), itself written crash-safely: the header
truncates the previous run via ``*.tmp`` + rename, progress lines append
with flush.  It is an operational record — resume correctness never
depends on it.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Optional, Union

from ..errors import ReplicationError
from ..observability import MetricsRegistry, get_registry
from ..storage.repo import RepoStorage
from .planner import SyncPlan, SyncPlanner
from .state import blob_digest, same_identity
from .targets import LocalMirror, ReplicationTarget


@dataclass
class SyncReport:
    """What one sync shipped, skipped and deleted."""

    containers_shipped: int = 0
    containers_skipped: int = 0
    objects_shipped: int = 0
    bytes_shipped: int = 0
    objects_deleted: int = 0
    committed: bool = False
    duration_seconds: float = 0.0

    def as_dict(self) -> Dict:
        return asdict(self)


class SyncJournal:
    """Crash-safe JSON-lines record of one sync run."""

    def __init__(self, path: Optional[str]) -> None:
        self.path = path
        self._handle = None
        if path is not None:
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)

    def start(self, target_identity: Dict, plan: SyncPlan) -> None:
        if self.path is None:
            return
        # Replace any previous run's journal atomically, then append.
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(
                json.dumps(
                    {
                        "event": "sync_begin",
                        "target": target_identity,
                        "plan": plan.summary(),
                    },
                    separators=(",", ":"),
                )
                + "\n"
            )
        os.replace(tmp, self.path)
        self._handle = open(self.path, "a", encoding="utf-8")

    def note(self, event: str, **fields) -> None:
        if self._handle is None:
            return
        self._handle.write(json.dumps({"event": event, **fields}, separators=(",", ":")) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def journal_path_for(source_root: str, target_identity: Dict) -> str:
    """Default journal location: one file per target under the source repo."""
    key = hashlib.sha256(
        json.dumps(target_identity, sort_keys=True).encode("utf-8")
    ).hexdigest()[:12]
    return os.path.join(source_root, ".replication", f"sync-{key}.jsonl")


def plan_sync(source: ReplicationTarget, target: ReplicationTarget) -> SyncPlan:
    """Read each endpoint's state once and diff them; refuses a self-sync."""
    source_state, target_state = source.state(), target.state()
    source_id, target_id = source.identity(), target.identity()
    if same_identity(source_id, target_id):
        raise ReplicationError(
            f"replication target resolves to the source repository "
            f"({target_id.get('path')!r} on {target_id.get('host')!r}); "
            "refusing to self-sync"
        )
    return SyncPlanner().plan(source_state, target_state)


def sync(
    source: ReplicationTarget,
    target: ReplicationTarget,
    metrics: Optional[MetricsRegistry] = None,
    open_journal: Optional[Callable[[Dict], SyncJournal]] = None,
) -> SyncReport:
    """Copy ``source`` onto ``target`` in O(delta); returns the report.

    ``metrics`` receives the ``replication.*`` counters and the sync
    duration (none are recorded without one); ``open_journal`` is handed
    the target's identity once the plan is made and returns the journal
    to record the run in.  Raises :class:`ReplicationError`, with nothing
    committed, when a fetched object does not match the source's state.
    """
    started = time.perf_counter()
    metrics = metrics if metrics is not None else MetricsRegistry()
    plan = plan_sync(source, target)
    target_id = target.identity()  # read with the state: no second request
    journal = open_journal(target_id) if open_journal else SyncJournal(None)
    journal.start(target_id, plan)
    report = SyncReport(containers_skipped=plan.containers_skipped)
    metrics.inc("replication.containers_skipped", plan.containers_skipped)
    try:
        for action in plan.ships:
            blob = source.fetch(action.kind, action.name)
            if len(blob) != action.size or (
                action.digest and blob_digest(blob) != action.digest
            ):
                raise ReplicationError(
                    f"{action.kind} {action.name!r} changed while syncing or in "
                    f"transit ({len(blob)} bytes fetched, {action.size} in the "
                    "source's state); is a backup mutating the source? re-run "
                    "the sync under the repository lock"
                )
            target.put(action.kind, action.name, blob, staged=action.staged)
            report.objects_shipped += 1
            report.bytes_shipped += len(blob)
            if action.kind == "container":
                report.containers_shipped += 1
                metrics.inc("replication.containers_shipped")
            metrics.inc("replication.bytes_shipped", len(blob))
            journal.note(
                "ship", kind=action.kind, name=action.name,
                bytes=len(blob), staged=action.staged,
            )
        if plan.needs_commit:
            target.commit(plan.renames, plan.deletes)
            report.committed = True
            report.objects_deleted = len(plan.deletes)
            metrics.inc("replication.objects_deleted", len(plan.deletes))
            journal.note("commit", renames=len(plan.renames), deletes=len(plan.deletes))
        report.duration_seconds = time.perf_counter() - started
        metrics.observe("replication.sync_seconds", report.duration_seconds)
        metrics.inc("replication.syncs_total")
        journal.note("sync_end", report=report.as_dict())
        return report
    except BaseException as exc:
        metrics.inc("replication.sync_failures_total")
        journal.note(
            "sync_error", error=type(exc).__name__, message=str(exc),
            shipped=report.objects_shipped,
        )
        raise
    finally:
        journal.close()


class ReplicationSession:
    """Incrementally mirror one repository to a target, journaled.

    Args:
        source: the repository to mirror — a directory or spec, or a
            :class:`~repro.storage.repo.RepoStorage` to borrow (a daemon
            passes its tenant's own).
        target: a :class:`~repro.replication.targets.ReplicationTarget`.
        journal: journal file path; ``None`` derives the default under
            ``<source>/.replication/``, ``""`` disables journaling.
        metrics: registry for ``replication.*`` counters and the sync
            duration histogram (defaults to the process registry).
    """

    def __init__(
        self,
        source: Union[str, RepoStorage],
        target: ReplicationTarget,
        journal: Optional[str] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.source = LocalMirror(source)
        location = self.source.storage.location
        if not location.exists():
            raise ReplicationError(f"source repository {location.spec!r} does not exist")
        self.target = target
        self.metrics = metrics if metrics is not None else get_registry()
        self._journal_arg = journal
        self.journal_path: Optional[str] = None

    def plan(self) -> SyncPlan:
        """Diff source against target without shipping anything (dry run)."""
        try:
            return plan_sync(self.source, self.target)
        finally:
            self.source.close()

    def _open_journal(self, target_identity: Dict) -> SyncJournal:
        if self._journal_arg is None:
            # Only a plain directory has somewhere to journal under; pass
            # an explicit path to journal syncs of other sources.
            local = self.source.storage.location
            path = journal_path_for(local.path, target_identity) if local.is_file else None
        else:
            path = self._journal_arg or None
        self.journal_path = path
        return SyncJournal(path)

    def run(self) -> SyncReport:
        """Execute one full sync; returns the shipping report."""
        try:
            return sync(self.source, self.target, self.metrics, self._open_journal)
        finally:
            self.source.close()
