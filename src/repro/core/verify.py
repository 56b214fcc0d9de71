"""Integrity verification ("fsck") for backup systems: one plan, one pass.

**Plan.**  Every retained recipe is walked once, each row resolved as a
restore resolves it (:meth:`HiDeStore.resolve_cids`).  A row in the active
pool is checked on the spot, in memory.  Every archival reference is folded
into ``cid -> {(fingerprint, size)}`` and the §4.5 deletion tags join the
referenced set: one pair per *distinct* referenced chunk, never a string
per entry.

**Pass.**  The container store is listed once, then each present-or-
referenced container is visited exactly once through ``BackendContainerStore.peek``
(:func:`check_containers`).  That one load answers everything asked of it:
missing or unreadable, presence and size of every referenced fingerprint,
and with ``deep`` the re-hash of every payload.  Sealed archival containers
are immutable (§4.2), so nothing can change between two references to one
container.  A damaged container is recorded and the pass moves on.

**Report.**  Only when the pass found damage are the recipes walked again,
to name each entry that references a damaged container, in recipe order.

The CLI's ``verify``, the daemon's promotion and revive gates and
``replication.repair`` (whose scan is the same pass) all sit on this.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Set, Tuple, Union

from ..chunking.fingerprint import Fingerprinter
from ..errors import StorageError
from ..pipeline.system import BackupSystem
from ..storage.container import Container
from ..storage.container_store import BackendContainerStore
from .hidestore import HiDeStore

#: One archival chunk reference as a recipe records it.
Ref = Tuple[bytes, int]


def container_name(cid: int) -> str:
    """The object name of archival container ``cid``."""
    return f"container-{cid:08d}.hdsc"


@dataclass
class VerificationReport:
    """Outcome of an integrity walk."""

    versions_checked: int = 0
    entries_checked: int = 0
    containers_checked: int = 0
    bytes_rehashed: int = 0
    issues: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    def note(self, issue: str) -> None:
        self.issues.append(issue)

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.issues)} issue(s)"
        return (
            f"verified {self.versions_checked} versions / "
            f"{self.entries_checked} chunk references: {status}"
        )


def _stored_size(container: Container, fp: bytes) -> Optional[int]:
    row = container.index.get(fp)
    return None if row is None else row[1]


def _reference_issue(cid: int, fp: bytes, size: int, stored: Optional[int]) -> Optional[str]:
    """What is wrong with a reference whose container stores ``stored`` bytes."""
    if stored is None:
        return f"container {cid} lacks {fp.hex()[:8]}"
    if stored != size:
        return f"size mismatch for {fp.hex()[:8]} (recipe {size}, container {stored})"
    return None


def rehash_payloads(container: Container) -> Tuple[int, Optional[str]]:
    """Re-hash stored payloads; returns ``(bytes hashed, first defect)``.

    Catches the bit-flips the container format cannot see: payloads carry
    no per-chunk checksum, their fingerprint *is* the checksum.
    Metadata-only (simulated) chunks have nothing to hash.
    """
    hashed = 0
    fingerprinter = None
    for fp, data in container.payloads():
        if data is None:
            continue
        if fingerprinter is None or fingerprinter.width != len(fp):
            fingerprinter = Fingerprinter(width=len(fp))
        hashed += len(data)
        if fingerprinter.fingerprint(data) != fp:
            return hashed, f"payload of chunk {fp.hex()[:8]} does not re-hash to its fingerprint"
    return hashed, None


@dataclass
class ContainerFindings:
    """What one visit to every present-or-referenced container found."""

    #: Containers present in the store (loaded, or found unreadable).
    checked: int = 0
    bytes_rehashed: int = 0
    #: cid -> container-level defect: ``missing``, ``unreadable: why``, or
    #: the first payload that does not re-hash (``deep`` only)
    defects: Dict[int, str] = field(default_factory=dict)
    #: cid -> ``missing`` / ``unreadable``: no reference into it can resolve
    unusable: Dict[int, str] = field(default_factory=dict)
    #: cid -> failing reference -> size the container stores (``None``: absent)
    bad_refs: Dict[int, Dict[Ref, Optional[int]]] = field(default_factory=dict)

    def entry_issue(self, cid: int, ref: Ref, noun: str) -> Optional[str]:
        """What is wrong with one archival reference into ``cid``, if anything."""
        if cid in self.unusable:
            return f"{self.unusable[cid]} {noun} {cid}"
        bad = self.bad_refs.get(cid, {})
        return _reference_issue(cid, *ref, bad[ref]) if ref in bad else None


def check_containers(
    store: BackendContainerStore, referenced: Mapping[int, Set[Ref]], deep: bool
) -> ContainerFindings:
    """The pass: load each present-or-referenced container exactly once.

    ``referenced`` maps every container ID the metadata points at to the
    chunk references it must satisfy (empty when only its presence
    matters, as for a deletion tag).  Presence comes from one listing of
    the store, never from an ``exists`` per reference.
    """
    found = ContainerFindings()
    present = set(store.container_ids())
    for cid in sorted(present.union(referenced)):
        if cid not in present:
            found.unusable[cid] = found.defects[cid] = "missing"
            continue
        found.checked += 1
        try:
            container = store.peek(cid)
        except StorageError as exc:
            found.unusable[cid] = "unreadable"
            found.defects[cid] = f"unreadable: {exc}"
            continue
        bad = {
            ref: stored
            for ref in referenced.get(cid, ())
            if (stored := _stored_size(container, ref[0])) != ref[1]
        }
        if bad:
            found.bad_refs[cid] = bad
        if deep:
            hashed, defect = rehash_payloads(container)
            found.bytes_rehashed += hashed
            if defect is not None:
                found.defects[cid] = defect
    return found


def _active_issue(system: HiDeStore, fp: bytes, size: int) -> Optional[str]:
    """Check a HiDeStore row that resolves to the active pool."""
    location = system.pool.location.get(fp)
    if location is None:
        return f"active chunk {fp.hex()[:8]} not in the location map"
    if location not in system.pool:
        return f"location map points at missing active container {location}"
    stored = _stored_size(system.pool.peek(location), fp)
    return _reference_issue(location, fp, size, stored)


def _archival_entries(
    system: Union[BackupSystem, HiDeStore], report: VerificationReport, issues: Dict
) -> Iterator[Tuple[Tuple[int, int], int, Ref]]:
    """Walk the retained recipes; yield ``(key, cid, ref)`` of each entry
    resolving to an archival container.

    Entries are keyed ``(version, index)``.  Every other entry is settled
    here (its issue, if any, lands in ``issues`` under its key), and
    ``report`` gets the version and entry counts.
    """
    hidestore = isinstance(system, HiDeStore)
    active: Dict[Ref, Optional[str]] = {}  # one pool check per distinct chunk
    # Decoded once for the walk and the index build the resolution needs.
    recipes = {v: system.recipes.peek(v) for v in system.recipes.version_ids()}
    for version_id, recipe in recipes.items():
        rows = recipe.columns()
        report.versions_checked += 1
        report.entries_checked += len(rows)
        cids = (
            system.resolve_cids(version_id, rows.fingerprints, rows.cids, recipes.__getitem__)
            if hidestore
            else rows.cids
        )
        for i, (fp, size, cid) in enumerate(zip(rows.fingerprints, rows.sizes, cids)):
            ref = (fp, size)
            if cid > 0:
                yield (version_id, i), cid, ref
                continue
            if hidestore:
                if ref not in active:
                    active[ref] = _active_issue(system, fp, size)
                issue = active[ref]
            else:
                issue = f"non-positive cid {cid} in traditional recipe"
            if issue is not None:
                issues[version_id, i] = issue


def verify_system(system: Union[BackupSystem, HiDeStore], deep: bool = False) -> VerificationReport:
    """Verify a :class:`BackupSystem` or a :class:`HiDeStore`.

    Every recipe entry must resolve to a container holding that
    fingerprint with the recorded size; a HiDeStore's active-location map
    and deletion tags must be consistent as well.  ``deep``
    also re-hashes every archival chunk payload against its fingerprint.
    """
    report = VerificationReport()
    hidestore = isinstance(system, HiDeStore)
    issues: Dict[Tuple[int, int], str] = {}
    referenced: Dict[int, Set[Ref]] = defaultdict(set)
    for _key, cid, ref in _archival_entries(system, report, issues):
        referenced[cid].add(ref)
    tags = [
        (version, cid)
        for version in (system.deletion.tagged_versions() if hidestore else ())
        for cid in system.deletion.containers_for(version)
    ]
    for _version, cid in tags:
        referenced.setdefault(cid, set())

    found = check_containers(system.containers, referenced, deep)
    report.containers_checked = found.checked
    report.bytes_rehashed = found.bytes_rehashed

    if found.unusable or found.bad_refs:
        # Damage is the rare path: only now name the entries it touches.
        noun = "archival container" if hidestore else "container"
        for key, cid, ref in _archival_entries(system, VerificationReport(), {}):
            issue = found.entry_issue(cid, ref, noun)
            if issue is not None:
                issues[key] = issue
    report.issues.extend(
        f"v{version_id}[{i}]: {issue}" for (version_id, i), issue in sorted(issues.items())
    )
    if hidestore:
        for version in sorted(set(system.chain.demoted).difference(system.recipes.version_ids())):
            report.note(f"demotion map of v{version}: recipe R_{version} is missing")
        # Location map entries must exist in their active containers.
        for fp, cid in system.pool.location.items():
            if cid not in system.pool:
                report.note(f"location map: {fp.hex()[:8]} -> missing container {cid}")
            elif fp not in system.pool.peek(cid):
                report.note(f"location map: container {cid} lacks {fp.hex()[:8]}")
    # Deletion tags must reference stored containers.
    for version, cid in tags:
        if found.unusable.get(cid) == "missing":
            report.note(f"deletion tag v{version}: missing container {cid}")
    for cid, defect in sorted(found.defects.items()):
        report.note(f"container file {container_name(cid)}: {defect}")
    return report


#: One routine serves both kinds of system; these name the kind at a call site.
verify_traditional = verify_hidestore = verify_system
