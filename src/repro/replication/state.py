"""Replicable-object model: what a repository *is*, for mirroring purposes.

A HiDeStore repository directory is a set of four object kinds:

* ``container`` — ``containers/container-XXXXXXXX.hdsc``.  Sealed archival
  containers are **immutable**: :meth:`FileContainerStore.write` refuses to
  overwrite, so a container file's content never changes after its first
  rename into place.  A mirror therefore copies each container exactly once
  (diffed by presence + size) and never again — the O(delta) property the
  §4.2 chunk filter buys us.
* ``recipe`` — ``recipes/recipe-XXXXXXXX.hdsr``.  Mostly stable, but **not**
  immutable: §4.3 chain maintenance rewrites the previous version's recipe
  in place, and Algorithm-1 flattening may rewrite any of them.  Diffed by
  content digest.
* ``manifest`` — ``manifests/manifest-XXXXXXXX.txt``.  Immutable per
  version; diffed by digest anyway (they are tiny).
* ``checkpoint`` — the volatile engine state (T1 tables, active containers,
  deletion tags), as a head plus parts (:mod:`repro.core.checkpoint`).  The
  head, ``checkpoint.json``, is a few KB, rewritten by every backup and
  every expiry and diffed by digest.  The parts — one per active container,
  one for the fingerprint tables — are written once under a name that ends
  in their content hash, so like sealed containers they are diffed by
  presence + size: a sync after an expiry ships the head alone, a sync
  after an incremental backup the head, the tables and the containers that
  backup allocated.

The vocabulary itself (kinds, sections, name patterns, staging suffix) is
defined once, in :mod:`repro.storage.repo`.

:func:`capture_state` snapshots a repository into a plain dict the
:class:`~repro.replication.planner.SyncPlanner` diffs; it is also what a
mirror daemon returns in ``REPLICATE_STATE_OK``, so both sides of the wire
speak the same shape.
"""

from __future__ import annotations

import hashlib
import os
from typing import Dict, Iterator, Tuple

from ..errors import ReplicationError
from ..storage.repo import SECTIONS, RepoStorage, object_name

#: A repository state snapshot: kind -> name -> {"size": int, "digest": str}.
#: Containers carry size only (immutable once visible; presence + size is
#: the whole identity), digest-bearing kinds carry both.
RepoState = Dict[str, Dict[str, Dict]]


def validate_object(kind: str, name: str) -> Tuple[str, str]:
    """Vet one (kind, name) pair from a plan or a wire frame; returns it."""
    object_name(kind, name)
    return kind, name


def object_path(root: str, kind: str, name: str) -> str:
    """Absolute path of one replicable object inside a repository directory."""
    return os.path.join(root, *object_name(kind, name).split("/"))


def blob_digest(blob: bytes) -> str:
    """The hex sha256 of an object blob (what ``StorageBackend.digest`` reports)."""
    return hashlib.sha256(blob).hexdigest()


def capture_state(root: str) -> RepoState:
    """Snapshot a repository's replicable objects (directory or URL spec).

    Must run while no backup/deletion is mutating the repository (the
    caller holds the registry's reader lock, or owns the directory
    outright); a mutation between digesting and shipping is caught later by
    the session's read-time digest check.
    """
    storage = RepoStorage(root)
    try:
        return storage.state()
    finally:
        storage.close()


def normalize_state(obj: object) -> RepoState:
    """Vet a state document that arrived over the wire (untrusted JSON)."""
    if not isinstance(obj, dict):
        raise ReplicationError("replication state must be a JSON object")
    state: RepoState = {}
    for kind, section in SECTIONS.items():
        raw = obj.get(section, {})
        if not isinstance(raw, dict):
            raise ReplicationError(f"replication state section {section!r} malformed")
        clean: Dict[str, Dict] = {}
        for name, info in raw.items():
            validate_object(kind, name)
            if not isinstance(info, dict) or not isinstance(info.get("size"), int):
                raise ReplicationError(f"replication state entry {name!r} malformed")
            entry = {"size": info["size"]}
            if "digest" in info:
                if not isinstance(info["digest"], str):
                    raise ReplicationError(f"replication state digest of {name!r} malformed")
                entry["digest"] = info["digest"]
            clean[name] = entry
        state[section] = clean
    return state


def iter_blocks(blob: bytes, block_size: int = 1 << 18) -> Iterator[bytes]:
    """Slice one object blob into wire/file-friendly blocks."""
    view = memoryview(blob)
    for offset in range(0, len(blob), block_size):
        yield bytes(view[offset : offset + block_size])


def source_identity(root: str) -> Dict[str, str]:
    """Where a repository physically lives, for self-sync detection (see
    :meth:`~repro.storage.repo.RepoStorage.identity`: a ``file://`` URL and
    the bare path it names produce the same identity)."""
    return RepoStorage(root).identity()


def same_identity(a: Dict, b: Dict) -> bool:
    """True when two identities resolve to the same directory on one host."""
    return (
        bool(a.get("path"))
        and a.get("host") == b.get("host")
        and a.get("path") == b.get("path")
    )
