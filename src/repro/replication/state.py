"""Replicable-object model: what a repository *is*, for mirroring purposes.

A HiDeStore repository directory is a set of four object kinds:

* ``container`` — ``containers/container-XXXXXXXX.hdsc``.  Sealed archival
  containers are **immutable**: :meth:`BackendContainerStore.write` refuses
  to overwrite (the backend's ``put``), so a container file's content never
  changes after its first rename into place.  A mirror therefore copies
  each container exactly once (diffed by presence + size) and never again —
  the O(delta) property the §4.2 chunk filter buys us.
* ``recipe`` — ``recipes/recipe-XXXXXXXX.hdsr`` — and ``manifest`` —
  ``manifests/manifest-XXXXXXXX.txt``.  Written once per backup, yet
  diffed by content digest, because a version number can be written
  twice: a backup that dies before its checkpoint head leaves its recipe
  and manifest behind, a sync may ship them, and the next backup sweeps
  them and takes the same number again — the same name, maybe the same
  size, other bytes (``tests/test_replication.py::
  test_a_reused_version_name_reaches_the_mirror``).  A repository
  upgraded from the code that rewrote ``R_previous`` in place may hold
  such a same-size rewrite too.
* ``checkpoint`` — the volatile engine state (T1 tables, active containers,
  deletion tags), as a head plus parts (:mod:`repro.core.checkpoint`).  The
  head, ``checkpoint.json``, is a few KB, rewritten by every backup and
  every expiry and diffed by digest.  The parts — one per active container,
  one for the fingerprint tables, one demotion map per version — are
  written once under a name that ends in their content hash, so like sealed
  containers they are diffed by presence + size: a sync after an expiry
  ships the head alone, a sync after an incremental backup the head, the
  tables, a demotion map and the containers that backup allocated.

The vocabulary itself (kinds, sections, name patterns, staging suffix) is
defined once, in :mod:`repro.storage.repo`.

:meth:`RepoStorage.state <repro.storage.repo.RepoStorage.state>` snapshots
a repository into the plain dict the
:class:`~repro.replication.planner.SyncPlanner` diffs; it is also what a
daemon returns in ``REPLICATE_STATE_OK`` (vetted here by
:func:`normalize_state`), so both sides of the wire speak the same shape.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Tuple

from ..errors import ReplicationError
from ..storage.repo import SECTIONS, object_name

#: A repository state snapshot: kind -> name -> {"size": int, "digest": str}.
#: Containers carry size only (immutable once visible; presence + size is
#: the whole identity), digest-bearing kinds carry both.
RepoState = Dict[str, Dict[str, Dict]]


def validate_object(kind: str, name: str) -> Tuple[str, str]:
    """Vet one (kind, name) pair from a plan or a wire frame; returns it."""
    object_name(kind, name)
    return kind, name


def blob_digest(blob: bytes) -> str:
    """The hex sha256 of an object blob (what ``StorageBackend.digest`` reports)."""
    return hashlib.sha256(blob).hexdigest()


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


def same_identity(a: Dict, b: Dict) -> bool:
    """True when two identities resolve to the same directory on one host."""
    return (
        bool(a.get("path"))
        and a.get("host") == b.get("host")
        and a.get("path") == b.get("path")
    )
