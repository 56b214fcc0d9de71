"""Verifiable repair: re-fetch damaged containers from a mirror.

The repair path is the disaster-recovery half of replication: when
``verify`` finds archival containers that are unreadable, fail deep
payload re-hashing, or are missing outright, ``repair_from_mirror``
re-fetches exactly those containers from a replication target, validates
every fetched blob *before* it touches the repository (unpack + chunk
payloads re-hashed against their fingerprints), and lands it atomically
(``*.tmp`` + rename) over the damaged file.

Sealed containers are immutable (§4.2), so a mirror populated by
``replicate`` holds bit-identical copies — a validated fetch is a full
repair, no reconciliation needed.  A mirror whose copy is *also* damaged
can never make things worse: blobs failing validation are rejected and
reported, and the original file is left untouched.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..core.deletion import interrupted_expiries
from ..core.verify import (
    VerificationReport,
    check_containers,
    container_name,
    rehash_payloads,
    verify_system,
)
from ..errors import ReproError, StorageError
from ..observability import MetricsRegistry, get_registry
from ..storage.container_store import decode_container
from ..storage.repo import RepoStorage
from .state import same_identity
from .targets import ReplicationTarget

_CONTAINER_RE = re.compile(r"^container-(\d{8})\.hdsc$")


def check_container_blob(blob: bytes, expected_id: int, deep: bool = True) -> Optional[str]:
    """Validate one serialised container; returns the defect or ``None``.

    Shallow: the blob must decompress/unpack as container ``expected_id``.
    Deep: every chunk payload must re-hash to its fingerprint
    (:func:`repro.core.verify.rehash_payloads`).
    """
    try:
        container = decode_container(blob, expected_id)
    except StorageError as exc:
        return f"unreadable: {exc}"
    return rehash_payloads(container)[1] if deep else None


def referenced_container_ids(storage: RepoStorage) -> Set[int]:
    """Container IDs the repository's metadata still points at.

    Union of positive cids across every retained recipe plus the §4.5
    deletion tags in the checkpoint head (tagged containers must exist for
    the expiry path to reclaim them), less the tags older than every
    retained recipe: those are interrupted expiries the next open
    finishes; plus the active containers the head names (the repository
    does not open without them).  Chain markers (negative) and the
    active-pool marker (0) reference no file.  Read straight off the recipes and the
    head — never the checkpoint parts, never the engine — so repair still
    works when the checkpoint does not load.
    """
    referenced: Set[int] = set()
    recipes = storage.recipe_store()
    retained = recipes.version_ids()
    for version_id in retained:
        referenced.update(e.cid for e in recipes.peek(version_id).entries if e.cid > 0)
    if storage.has_checkpoint():
        try:
            head = storage.read_checkpoint_document()
            tags = head.get("deletion_tags", {})
            dying = set(interrupted_expiries(map(int, tags), retained))
            for version, cids in tags.items():
                if int(version) not in dying:
                    referenced.update(int(cid) for cid in cids)
            referenced.update(int(ref["cid"]) for ref in head.get("active", ()))
        except (ValueError, TypeError, KeyError, OSError, ReproError):
            pass  # a damaged checkpoint is verify's problem, not repair's
    return referenced


def scan_containers(repo_root: str, deep: bool = True) -> Tuple[int, Dict[str, str]]:
    """Find damaged archival containers; returns ``(scanned, {name: defect})``.

    Three defect classes: present-but-unreadable, present-but-payload-
    corrupt (``deep``), and referenced-but-missing — the container-level
    half of :func:`repro.core.verify.check_containers`, one load each.
    """
    storage = RepoStorage(repo_root)
    try:
        referenced = {cid: set() for cid in referenced_container_ids(storage)}
        found = check_containers(storage.container_store(), referenced, deep)
    finally:
        storage.close()
    return found.checked, {container_name(cid): d for cid, d in found.defects.items()}


@dataclass
class RepairReport:
    """Outcome of one ``repair_from_mirror`` run."""

    containers_scanned: int = 0
    #: name -> defect found by the pre-repair scan
    damaged: Dict[str, str] = field(default_factory=dict)
    repaired: List[str] = field(default_factory=list)
    #: name -> why the mirror's copy could not be used
    unrepaired: Dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.unrepaired

    def as_dict(self) -> Dict:
        return {
            "containers_scanned": self.containers_scanned,
            "damaged": dict(self.damaged),
            "repaired": list(self.repaired),
            "unrepaired": dict(self.unrepaired),
            "ok": self.ok,
        }

    def summary(self) -> str:
        if not self.damaged:
            return f"scanned {self.containers_scanned} containers: all sound"
        status = "OK" if self.ok else f"{len(self.unrepaired)} NOT repaired"
        return (
            f"scanned {self.containers_scanned} containers: "
            f"{len(self.damaged)} damaged, {len(self.repaired)} repaired, {status}"
        )


def repair_from_mirror(
    repo_root: str,
    mirror: ReplicationTarget,
    deep: bool = True,
    metrics: Optional[MetricsRegistry] = None,
) -> RepairReport:
    """Scan ``repo_root`` for damaged containers and re-fetch them.

    Every fetched blob is validated (unpack under the damaged container's
    ID, payloads re-hashed) before it replaces anything; validation
    failures leave the local file untouched and are reported in
    ``unrepaired``.  Refuses a mirror that resolves to the repository
    being repaired — "repairing" from the damaged files themselves.
    """
    from ..errors import ReplicationError

    metrics = metrics if metrics is not None else get_registry()
    storage = RepoStorage(repo_root)
    mirror_id = mirror.identity()
    if same_identity(storage.identity(), mirror_id):
        raise ReplicationError(
            f"repair mirror resolves to the repository being repaired "
            f"({mirror_id.get('path')!r} on {mirror_id.get('host')!r})"
        )
    report = RepairReport()
    report.containers_scanned, report.damaged = scan_containers(repo_root, deep=deep)
    try:
        for name in sorted(report.damaged):
            cid = int(_CONTAINER_RE.match(name).group(1))
            try:
                blob = mirror.fetch("container", name)
            except ReproError as exc:
                report.unrepaired[name] = f"mirror fetch failed: {exc}"
                metrics.inc("repair.containers_unrepaired")
                continue
            defect = check_container_blob(blob, cid, deep=True)
            if defect is not None:
                report.unrepaired[name] = f"mirror copy rejected: {defect}"
                metrics.inc("repair.containers_unrepaired")
                continue
            storage.write_object("container", name, blob)
            report.repaired.append(name)
            metrics.inc("repair.containers_repaired")
            metrics.inc("repair.bytes_fetched", len(blob))
    finally:
        storage.close()
    return report


def verify_repository(repo_root: str, deep: bool = False) -> VerificationReport:
    """Full-repository verification over a repository directory or URL.

    Opens the engine on the stored state and runs
    :func:`repro.core.verify.verify_system`: one walk of the recipes, one
    load of each container; ``deep`` re-hashes every stored chunk payload
    on that same load — the findings ``repair`` keys off.
    """
    from ..repository import open_repository

    report = VerificationReport()
    try:
        system = open_repository(repo_root)
    except (ReproError, ValueError, KeyError, OSError) as exc:
        report.note(f"repository unreadable: {exc}")
        return report
    try:
        return verify_system(system, deep)
    except StorageError as exc:  # a recipe that does not parse: nothing to walk
        report.note(f"verification aborted: {exc}")
        return report
