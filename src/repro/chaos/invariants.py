"""Post-phase invariant checks: replay reality against the driver model.

Run after every phase, with all client threads quiesced and every
recovery action applied.  Each check compares what the deployment
actually holds against the :class:`~repro.chaos.driver.TenantModel` the
driver maintained, and returns a structured result — the chaos report is
machine-readable so CI can gate on it.

The five invariants:

* **typed_errors** — every error a client saw during the phase was a
  :class:`~repro.errors.ReproError` subclass.  Faults are allowed to fail
  operations; they are never allowed to produce an untyped exception.
* **no_torn_versions** — each tenant's version list matches the model
  exactly (an interrupted backup either committed whole or vanished
  whole), and every version restores bit-identically to the content
  digest recorded at backup time.
* **mirror_consistency** — a mirror is never torn: its version set is
  exactly the model's last-synced set, every mirrored version restores
  to its recorded digest, a deep verify passes, and no ``*.staged``
  litter survives (the two-phase ship protocol cleaned up after itself).
* **deletion_propagation** — §4.5 deletions are real: deleted version
  ids are gone from the source, and restoring one fails *typed*.
* **clean_resume** — after a node restart, every tenant's repository
  answers ``stats``/``versions`` again without manual intervention.

Every check increments ``chaos.invariants_checked``; a failing one also
increments ``chaos.invariant_failures`` — both surface through
``hidestore stats --metrics``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import ReproError
from ..observability import MetricsRegistry, get_registry
from .deploy import Deployment
from .driver import Driver, TenantModel, drain_digest

__all__ = ["InvariantResult", "check_invariants", "INVARIANT_NAMES"]

INVARIANT_NAMES = (
    "typed_errors",
    "no_torn_versions",
    "mirror_consistency",
    "deletion_propagation",
    "clean_resume",
)

_MAX_DETAILS = 20


@dataclass
class InvariantResult:
    name: str
    phase: str
    ok: bool
    checked: int  # how many tenants/versions the check actually covered
    details: List[str] = field(default_factory=list)

    def as_doc(self) -> Dict:
        return {
            "name": self.name,
            "phase": self.phase,
            "ok": self.ok,
            "checked": self.checked,
            "details": self.details[:_MAX_DETAILS],
        }


class _Check:
    """Accumulator for one invariant over all tenants."""

    def __init__(self, name: str, phase: str) -> None:
        self.name = name
        self.phase = phase
        self.checked = 0
        self.details: List[str] = []

    def fail(self, detail: str) -> None:
        if len(self.details) < _MAX_DETAILS:
            self.details.append(detail)
        elif len(self.details) == _MAX_DETAILS:
            self.details.append("... further details elided")

    def result(self) -> InvariantResult:
        return InvariantResult(
            self.name, self.phase, not self.details, self.checked, self.details
        )


def check_invariants(
    driver: Driver,
    deployment: Deployment,
    phase: str,
    metrics: Optional[MetricsRegistry] = None,
) -> List[InvariantResult]:
    """Run every invariant against the current deployment state."""
    metrics = metrics if metrics is not None else get_registry()
    models = driver.models
    results = [
        _typed_errors(driver, phase),
        _no_torn_versions(deployment, models, phase),
        _mirror_consistency(deployment, models, phase),
        _deletion_propagation(deployment, models, phase),
        _clean_resume(driver, deployment, models, phase),
    ]
    for result in results:
        metrics.inc("chaos.invariants_checked")
        if not result.ok:
            metrics.inc("chaos.invariant_failures")
    return results


# ----------------------------------------------------------------------
def _typed_errors(driver: Driver, phase: str) -> InvariantResult:
    check = _Check("typed_errors", phase)
    for result in driver.results:
        if result.phase != phase:
            continue
        check.checked += 1
        if result.status == "failed_untyped":
            check.fail(
                f"op {result.index} ({result.kind} on {result.tenant}) "
                f"raised an untyped error: {result.error}"
            )
    return check.result()


def _no_torn_versions(
    deployment: Deployment, models: Dict[str, TenantModel], phase: str
) -> InvariantResult:
    check = _Check("no_torn_versions", phase)
    for tenant, model in sorted(models.items()):
        try:
            repo = deployment.repo(tenant)
            rows = repo.versions()
        except ReproError as exc:
            check.checked += 1
            check.fail(f"{tenant}: repository unreachable: {exc}")
            continue
        actual = [row["version_id"] for row in rows]
        expected = model.version_ids()
        check.checked += 1
        if actual != expected:
            check.fail(
                f"{tenant}: version set torn — repository holds {actual}, "
                f"driver recorded {expected}"
            )
            continue
        for row in model.versions:
            check.checked += 1
            try:
                _plan, stream = repo.restore(row["id"], verify=True)
                digest = drain_digest(stream)
            except ReproError as exc:
                check.fail(f"{tenant} v{row['id']}: restore failed: {exc}")
                continue
            if digest != row["digest"]:
                check.fail(
                    f"{tenant} v{row['id']}: restored bytes do not match "
                    f"the digest recorded at backup time"
                )
    return check.result()


def _mirror_consistency(
    deployment: Deployment, models: Dict[str, TenantModel], phase: str
) -> InvariantResult:
    from ..replication.repair import verify_repository
    from ..repository import LocalRepository

    check = _Check("mirror_consistency", phase)
    for tenant, model in sorted(models.items()):
        if model.mirror_expected is None:
            continue  # never replicated; nothing promised about the mirror
        root = deployment.mirror_root(tenant)
        check.checked += 1
        if not os.path.isdir(root):
            check.fail(f"{tenant}: mirror root {root!r} missing")
            continue
        # Staged objects are two-phase-ship intermediates: after a sync
        # that *completed* (either way) they must be gone, but a sync
        # that died mid-ship legitimately leaves them until the next
        # sync commits over them.
        if not model.mirror_dirty:
            staged = _staged_litter(root)
            if staged:
                check.fail(
                    f"{tenant}: mirror holds staged litter after quiesce: {staged}"
                )
        try:
            mirror_repo = LocalRepository(root)
            actual = [row["version_id"] for row in mirror_repo.versions()]
        except ReproError as exc:
            check.fail(f"{tenant}: mirror unreadable: {exc}")
            continue
        if actual != model.mirror_expected:
            check.fail(
                f"{tenant}: mirror torn — holds versions {actual}, last "
                f"completed sync shipped {model.mirror_expected}"
            )
            continue
        for vid in model.mirror_expected:
            check.checked += 1
            want = model.mirror_digests.get(vid)
            try:
                _plan, stream = mirror_repo.restore(vid, verify=True)
                digest = drain_digest(stream)
            except ReproError as exc:
                check.fail(f"{tenant}: mirror v{vid} restore failed: {exc}")
                continue
            if want is not None and digest != want:
                check.fail(
                    f"{tenant}: mirror v{vid} bytes diverge from the "
                    f"content shipped at sync time"
                )
        report = verify_repository(root, deep=True)
        check.checked += 1
        if not report.ok:
            check.fail(f"{tenant}: mirror deep verify failed: {report.summary()}")
    return check.result()


def _staged_litter(root: str) -> List[str]:
    from ..storage.repo import STAGED_SUFFIX

    litter = []
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            if name.endswith(STAGED_SUFFIX):
                litter.append(os.path.relpath(os.path.join(dirpath, name), root))
    return sorted(litter)


def _deletion_propagation(
    deployment: Deployment, models: Dict[str, TenantModel], phase: str
) -> InvariantResult:
    check = _Check("deletion_propagation", phase)
    for tenant, model in sorted(models.items()):
        if not model.deleted:
            continue
        try:
            repo = deployment.repo(tenant)
            actual = {row["version_id"] for row in repo.versions()}
        except ReproError as exc:
            check.checked += 1
            check.fail(f"{tenant}: repository unreachable: {exc}")
            continue
        check.checked += 1
        survivors = sorted(set(model.deleted) & actual)
        if survivors:
            check.fail(f"{tenant}: deleted versions still listed: {survivors}")
        # Restoring a deleted version must fail, and fail *typed*.
        victim = model.deleted[-1]
        check.checked += 1
        try:
            _plan, stream = repo.restore(victim, verify=True)
            drain_digest(stream)
            check.fail(f"{tenant}: deleted v{victim} still restores")
        except ReproError:
            pass  # the expected typed refusal
        except Exception as exc:
            check.fail(
                f"{tenant}: restoring deleted v{victim} raised untyped "
                f"{type(exc).__name__}: {exc}"
            )
    return check.result()


def _clean_resume(
    driver: Driver,
    deployment: Deployment,
    models: Dict[str, TenantModel],
    phase: str,
) -> InvariantResult:
    check = _Check("clean_resume", phase)
    if not driver.restarted_this_phase:
        return check.result()  # vacuously true; checked == 0 says "not exercised"
    for tenant in sorted(models):
        check.checked += 1
        try:
            repo = deployment.repo(tenant)
            repo.stats()
            repo.versions()
        except ReproError as exc:
            check.fail(
                f"{tenant}: repository did not resume cleanly after "
                f"restart of {driver.restarted_this_phase}: {exc}"
            )
    return check.result()
