"""The replication session: execute one sync plan against a mirror.

One :meth:`ReplicationSession.run` is one sync:

1. refuse a target that resolves to the source repository (self-sync);
2. snapshot the source state (the caller guarantees no writer is mutating
   the repository — the daemon wraps this in the registry's reader lock,
   the CLI owns the directory);
3. diff against the target's state (:class:`SyncPlanner`) and journal the
   plan;
4. ship the delta — containers, manifests and checkpoint parts straight
   into place (atomic per object, invisible until a recipe or the
   checkpoint head names them), recipes and the checkpoint head as staged
   files;
5. commit: flip staged objects live and apply expirations.

Crash safety: every landed object is ``*.tmp`` + rename, staged objects
survive a mirror restart, and the commit is idempotent — so a sync killed
at *any* point leaves the mirror serving exactly its previous consistent
state, and simply re-running the sync resumes it: the fresh diff skips
every container that already made it (journaled and reported as
``containers_skipped``).

The journal (one JSON-lines file per target under
``<source>/.replication/``) is itself written crash-safely: the header
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
from typing import Dict, Optional

from ..errors import ReplicationError
from ..observability import MetricsRegistry, get_registry
from ..storage.backend import parse_repo_spec
from ..storage.repo import RepoStorage
from .planner import SyncPlan, SyncPlanner
from .state import blob_digest, capture_state, same_identity, source_identity
from .targets import ReplicationTarget, read_object


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


class ReplicationSession:
    """Incrementally mirror one repository directory to a target.

    Args:
        source_root: the repository directory to mirror.
        target: a :class:`~repro.replication.targets.ReplicationTarget`.
        journal: journal file path; ``None`` derives the default under
            ``<source>/.replication/``, ``""`` disables journaling.
        metrics: registry for ``replication.*`` counters and the sync
            duration histogram (defaults to the process registry).
    """

    def __init__(
        self,
        source_root: str,
        target: ReplicationTarget,
        journal: Optional[str] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if not RepoStorage(source_root).exists():
            raise ReplicationError(f"source repository {source_root!r} does not exist")
        self.source_root = source_root
        self.target = target
        self.metrics = metrics if metrics is not None else get_registry()
        self._journal_arg = journal
        self.journal_path: Optional[str] = None

    # ------------------------------------------------------------------
    def check_not_self(self) -> Dict:
        """Refuse a target that is the source repository itself."""
        target_id = self.target.identity()
        if same_identity(source_identity(self.source_root), target_id):
            raise ReplicationError(
                f"replication target resolves to the source repository "
                f"({target_id.get('path')!r} on {target_id.get('host')!r}); "
                "refusing to self-sync"
            )
        return target_id

    def plan(self) -> SyncPlan:
        """Diff source against target without shipping anything (dry run)."""
        self.check_not_self()
        return SyncPlanner().plan(capture_state(self.source_root), self.target.state())

    # ------------------------------------------------------------------
    def run(self) -> SyncReport:
        """Execute one full sync; returns the shipping report."""
        started = time.perf_counter()
        target_id = self.check_not_self()
        if self._journal_arg == "":
            journal = SyncJournal(None)
        elif self._journal_arg is None:
            # Only a plain directory has somewhere to journal under; pass
            # an explicit path to journal syncs of other sources.
            local = parse_repo_spec(self.source_root)
            journal = SyncJournal(
                journal_path_for(local.path, target_id) if local.is_file else None
            )
        else:
            journal = SyncJournal(self._journal_arg)
        self.journal_path = journal.path

        plan = SyncPlanner().plan(capture_state(self.source_root), self.target.state())
        journal.start(target_id, plan)
        report = SyncReport(containers_skipped=plan.containers_skipped)
        self.metrics.inc("replication.containers_skipped", plan.containers_skipped)
        try:
            for action in plan.ships:
                blob = read_object(self.source_root, action.kind, action.name)
                if action.digest and blob_digest(blob) != action.digest:
                    raise ReplicationError(
                        f"{action.kind} {action.name!r} changed while syncing; "
                        "is a backup mutating the source repository? re-run "
                        "the sync under the repository lock"
                    )
                if not action.digest and len(blob) != action.size:
                    raise ReplicationError(
                        f"{action.kind} {action.name!r} changed size while syncing"
                    )
                self.target.put(action.kind, action.name, blob, staged=action.staged)
                report.objects_shipped += 1
                report.bytes_shipped += len(blob)
                if action.kind == "container":
                    report.containers_shipped += 1
                    self.metrics.inc("replication.containers_shipped")
                self.metrics.inc("replication.bytes_shipped", len(blob))
                journal.note(
                    "ship", kind=action.kind, name=action.name,
                    bytes=len(blob), staged=action.staged,
                )
            if plan.needs_commit:
                self.target.commit(plan.renames, plan.deletes)
                report.committed = True
                report.objects_deleted = len(plan.deletes)
                self.metrics.inc("replication.objects_deleted", len(plan.deletes))
                journal.note(
                    "commit", renames=len(plan.renames), deletes=len(plan.deletes)
                )
            report.duration_seconds = time.perf_counter() - started
            self.metrics.observe("replication.sync_seconds", report.duration_seconds)
            self.metrics.inc("replication.syncs_total")
            journal.note("sync_end", report=report.as_dict())
            return report
        except BaseException as exc:
            self.metrics.inc("replication.sync_failures_total")
            journal.note(
                "sync_error", error=type(exc).__name__, message=str(exc),
                shipped=report.objects_shipped,
            )
            raise
        finally:
            journal.close()
