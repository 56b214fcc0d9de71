"""Test-only oracle for ``repro.core.verify``: the per-entry walk.

This is the verification routine as it stood before the container-major
pass replaced it — one ``cid in store`` and one ``store.peek(cid)`` per
recipe entry, then a second sweep over every stored container — kept
because it is short enough to be obviously right.  It differs from the
code it was lifted from in the two ways the single pass was specified to:
an unreadable container is recorded against the entry and the walk goes
on (the old walk aborted), and the container-level sweep runs in shallow
mode too (it used to run with ``deep`` only).

It is deliberately independent of the production module: it shares no
helper with it, hashes with ``hashlib`` directly, and formats every issue
itself.  A HiDeStore's rows are located by Algorithm 1 (the chain's
``flatten``), not by the resolver restores and ``verify`` share.
"""

import hashlib

from repro.core.hidestore import HiDeStore
from repro.errors import StorageError


class OracleReport:
    def __init__(self):
        self.versions_checked = 0
        self.entries_checked = 0
        self.issues = []


def _check_entry(issues, fp, size, container, where):
    if fp not in container:
        issues.append(f"{where}: container {container.container_id} lacks {fp.hex()[:8]}")
        return
    slot = container.get(fp)
    if slot.size != size:
        issues.append(
            f"{where}: size mismatch for {fp.hex()[:8]} "
            f"(recipe {size}, container {slot.size})"
        )


def _check_archival(issues, system, entry, where, noun):
    if entry.cid not in system.containers:
        issues.append(f"{where}: missing {noun} {entry.cid}")
        return
    try:
        container = system.containers.peek(entry.cid)
    except StorageError:
        issues.append(f"{where}: unreadable {noun} {entry.cid}")
        return
    _check_entry(issues, entry.fingerprint, entry.size, container, where)


def _walk_traditional(system, report):
    for version_id in system.recipes.version_ids():
        recipe = system.recipes.peek(version_id)
        report.versions_checked += 1
        for i, entry in enumerate(recipe.entries):
            report.entries_checked += 1
            where = f"v{version_id}[{i}]"
            if entry.cid <= 0:
                report.issues.append(
                    f"{where}: non-positive cid {entry.cid} in traditional recipe"
                )
                continue
            _check_archival(report.issues, system, entry, where, "container")


def _rows(system):
    """version -> its rows with the CIDs they resolve to (positive: archival)."""
    if isinstance(system, HiDeStore):
        flattened = system.chain.flatten()
        return {v: flattened[v].entries for v in sorted(flattened)}
    return {v: system.recipes.peek(v).entries for v in system.recipes.version_ids()}


def _walk_hidestore(system, report):
    issues = report.issues
    for version_id, entries in _rows(system).items():
        report.versions_checked += 1
        for i, entry in enumerate(entries):
            report.entries_checked += 1
            where = f"v{version_id}[{i}]"
            if entry.cid <= 0:
                location = system.pool.location.get(entry.fingerprint)
                if location is None:
                    issues.append(
                        f"{where}: active chunk {entry.fingerprint.hex()[:8]} "
                        "not in the location map"
                    )
                    continue
                if location not in system.pool:
                    issues.append(
                        f"{where}: location map points at missing active "
                        f"container {location}"
                    )
                    continue
                container = system.pool.peek(location)
                _check_entry(issues, entry.fingerprint, entry.size, container, where)
            else:
                _check_archival(issues, system, entry, where, "archival container")

    for fp, cid in system.pool.location.items():
        if cid not in system.pool:
            issues.append(f"location map: {fp.hex()[:8]} -> missing container {cid}")
        elif fp not in system.pool.peek(cid):
            issues.append(f"location map: container {cid} lacks {fp.hex()[:8]}")

    for version in system.deletion.tagged_versions():
        for cid in system.deletion.containers_for(version):
            if cid not in system.containers:
                issues.append(f"deletion tag v{version}: missing container {cid}")


def _referenced(system):
    referenced = set()
    for entries in _rows(system).values():
        for entry in entries:
            if entry.cid > 0:
                referenced.add(entry.cid)
    if isinstance(system, HiDeStore):
        for version in system.deletion.tagged_versions():
            referenced.update(system.deletion.containers_for(version))
    return referenced


def _sweep_containers(system, deep, issues):
    present = set()
    for cid in system.containers.container_ids():
        present.add(cid)
        name = f"container-{cid:08d}.hdsc"
        try:
            container = system.containers.peek(cid)
        except StorageError as exc:
            issues.append(f"container file {name}: unreadable: {exc}")
            continue
        if not deep:
            continue
        for fp, slot in container.items():
            if slot.data is None:
                continue
            digest = hashlib.sha1(slot.data).digest()[: len(fp)].ljust(len(fp), b"\x00")
            if digest != fp:
                issues.append(
                    f"container file {name}: payload of chunk {fp.hex()[:8]} "
                    "does not re-hash to its fingerprint"
                )
                break
    for cid in sorted(_referenced(system) - present):
        issues.append(f"container file container-{cid:08d}.hdsc: missing")


def oracle_verify(system, deep=False):
    """Verify ``system`` one entry at a time; returns an :class:`OracleReport`."""
    report = OracleReport()
    if isinstance(system, HiDeStore):
        _walk_hidestore(system, report)
    else:
        _walk_traditional(system, report)
    _sweep_containers(system, deep, report.issues)
    return report


# ----------------------------------------------------------------------
# The corruption matrix both routines are run over
# ----------------------------------------------------------------------
class NotApplicable(Exception):
    """This kind of damage cannot be inflicted on this kind of system."""


def _archival(system):
    """``(version_id, index, entry)`` of every row resolving to an archival
    container, the entry carrying that CID."""
    for version_id, entries in _rows(system).items():
        for index, entry in enumerate(entries):
            if entry.cid > 0:
                yield version_id, index, entry


def _referenced_cids(system):
    cids = sorted({entry.cid for _v, _i, entry in _archival(system)})
    if len(cids) < 2:
        raise NotApplicable("needs two referenced archival containers")
    return cids


def _edit_entry(system, version_id, index, **changes):
    """Damage one stored row: the recipe is replaced on disk, as bit rot or
    a bad copy would (no code path writes a recipe twice)."""
    recipe = system.recipes.peek(version_id)
    for name, value in changes.items():
        setattr(recipe.entries[index], name, value)
    system.recipes.delete(version_id)
    system.recipes.write(recipe)


def _hidestore_only(system):
    if not isinstance(system, HiDeStore):
        raise NotApplicable("HiDeStore invariant")


def _rewrite_blob(system, cid, edit):
    store = system.containers
    name = store._name(cid)
    store.backend.put_meta(name, edit(store.backend.get(name)))


def clean(system):
    pass


def missing_container(system):
    system.containers.delete(_referenced_cids(system)[0])


def truncated_header(system):
    _rewrite_blob(system, _referenced_cids(system)[0], lambda blob: blob[:10])


def truncated_payload(system):
    _rewrite_blob(system, _referenced_cids(system)[0], lambda blob: blob[: len(blob) - 7])


def truncated_plus_missing(system):
    cids = _referenced_cids(system)
    _rewrite_blob(system, cids[0], lambda blob: blob[:10])
    system.containers.delete(cids[-1])


def garbage_orphan_container(system):
    """An unreadable container no recipe references."""
    store = system.containers
    store.backend.put_meta(store._name(store.next_id + 3), b"not a container")


def payload_bitflip(system):
    """A flipped payload byte: the blob still unpacks cleanly."""
    cid = _referenced_cids(system)[0]
    _fp, slot = next(iter(system.containers.peek(cid).items()))
    if slot.data is None:
        raise NotApplicable("metadata-only chunks have no payload to flip")
    # The payload region sits at the end of the blob.
    _rewrite_blob(system, cid, lambda blob: blob[:-4] + bytes([blob[-4] ^ 0xFF]) + blob[-3:])


def recipe_size_mismatch(system):
    version_id, index, entry = next(_archival(system))
    _edit_entry(system, version_id, index, size=entry.size + 1, cid=entry.cid)


def recipe_fingerprint_absent(system):
    version_id, index, entry = next(_archival(system))
    _edit_entry(
        system, version_id, index, fingerprint=b"\xee" * len(entry.fingerprint), cid=entry.cid
    )


def chain_to_deleted_recipe(system):
    """No damage: a chain pointer names no recipe the resolver reads (a row
    resolves by its fingerprint), so one at an expired recipe is harmless."""
    _hidestore_only(system)
    oldest = system.recipes.version_ids()[0]
    if oldest < 2:
        raise NotApplicable("no version has been deleted")
    _edit_entry(system, oldest, 0, cid=-(oldest - 1))


def stale_pointer_past_newest(system):
    """Pointers past the newest version resolve like any non-positive row:
    one to an active chunk resolves, one to a chunk that is nowhere dangles."""
    _hidestore_only(system)
    versions = system.recipes.version_ids()
    beyond = -(versions[-1] + 3)
    active = next(e for e in system.recipes.peek(versions[-1]).entries if e.cid == 0)
    _edit_entry(system, versions[0], 0, cid=beyond,
                fingerprint=active.fingerprint, size=active.size)
    version_id, index, entry = next(_archival(system))
    _edit_entry(system, version_id, index, cid=beyond, fingerprint=b"\xdd" * len(entry.fingerprint))


def location_map_damage(system):
    _hidestore_only(system)
    fingerprints = iter(list(system.pool.location))
    system.pool.location[next(fingerprints)] = 999_999
    lost = next(fingerprints)
    system.pool.peek(system.pool.location[lost]).remove(lost)
    del system.pool.location[next(fingerprints)]


def dangling_deletion_tag(system):
    _hidestore_only(system)
    system.deletion.tag_containers(system.recipes.version_ids()[-1], [999_998])


#: Damage that lives in the engine's volatile state, not in a stored object.
IN_MEMORY_ONLY = (location_map_damage, dangling_deletion_tag)

#: damage -> a substring some reported issue must carry (``None``: no issue).
CORRUPTIONS = {
    clean: None,
    missing_container: "missing",
    truncated_header: "unreadable",
    truncated_payload: "unreadable",
    truncated_plus_missing: "unreadable",
    garbage_orphan_container: "unreadable",
    payload_bitflip: "re-hash",
    recipe_size_mismatch: "size mismatch",
    recipe_fingerprint_absent: "lacks",
    chain_to_deleted_recipe: None,
    stale_pointer_past_newest: "not in the location map",
    location_map_damage: "location map",
    dangling_deletion_tag: "deletion tag",
}


def assert_matches_oracle(system, damage, deep):
    """``verify_system`` and the oracle report the same issue set."""
    from repro.core.verify import verify_system

    got = verify_system(system, deep)
    want = oracle_verify(system, deep)
    assert sorted(got.issues) == sorted(want.issues)
    assert got.versions_checked == want.versions_checked
    assert got.entries_checked == want.entries_checked
    expected = CORRUPTIONS[damage]
    if expected is None or (damage is payload_bitflip and not deep):
        assert got.ok, got.issues
    else:
        assert any(expected in issue for issue in got.issues), got.issues
    return got
