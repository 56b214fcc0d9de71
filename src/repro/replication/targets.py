"""Replication targets: where a mirror lives (local directory or daemon).

Both targets speak the same five-verb surface the
:class:`~repro.replication.session.ReplicationSession` drives:

* ``state()`` — the mirror's current :data:`RepoState` for diffing;
* ``put(kind, name, blob, staged)`` — land one object, atomically
  (``*.tmp`` + rename), either into place or as a ``*.staged`` file;
* ``commit(renames, deletes)`` — flip staged objects live and apply
  expirations, in the caller's order;
* ``fetch(kind, name)`` — read one object back (the ``repair`` path);
* ``identity()`` — where the mirror physically lives, so ``replicate`` and
  ``repair`` can refuse a target that resolves to the source repository.

:class:`LocalMirror` is a plain directory; :class:`RemoteMirror` drives a
mirror daemon through the ``REPLICATE_*`` frames via
:class:`~repro.client.remote.RemoteRepository`, inheriting its pooling,
timeouts and idempotent-op retry machinery.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Protocol, Tuple, runtime_checkable

from ..errors import ObjectMissingError, ReplicationError
from ..storage.repo import RepoStorage
from .planner import ObjectRef
from .state import (
    RepoState,
    blob_digest,
    capture_state,
    source_identity,
    validate_object,
)


@runtime_checkable
class ReplicationTarget(Protocol):
    """The verbs a mirror must support (see module docstring)."""

    def state(self) -> RepoState: ...

    def put(self, kind: str, name: str, blob: bytes, staged: bool = False) -> None: ...

    def commit(self, renames: List[ObjectRef], deletes: List[ObjectRef]) -> None: ...

    def fetch(self, kind: str, name: str) -> bytes: ...

    def identity(self) -> Dict[str, str]: ...

    def close(self) -> None: ...


# ----------------------------------------------------------------------
# Shared mechanics (LocalMirror + the daemon's target handlers)
# ----------------------------------------------------------------------
def write_object(root: str, kind: str, name: str, blob: bytes, staged: bool) -> None:
    """Atomically land one object in the repository at ``root`` (a
    directory or any backend spec).

    Direct writes replace the object in one step (``*.tmp`` + rename on
    file backends: a crash leaves only litter the stores already sweep);
    staged writes land as ``<name>.staged`` and wait for
    :func:`commit_objects`.
    """
    validate_object(kind, name)
    storage = RepoStorage(root)
    try:
        storage.write_object(kind, name, blob, staged=staged)
    finally:
        storage.close()


def commit_objects(root: str, renames: List[ObjectRef], deletes: List[ObjectRef]) -> int:
    """Apply a sync's commit step to a mirror (directory or backend URL);
    returns ops applied.

    Idempotent by construction, so an interrupted commit can simply be
    re-run: a rename whose staged object is gone but whose final object
    exists already happened; a delete of a missing object already happened.
    Refused before anything is renamed when the staged checkpoint head names
    a part that is not in place (:meth:`~repro.storage.repo.RepoStorage.
    commit_objects`).
    """
    for ref in list(renames) + list(deletes):
        validate_object(ref.kind, ref.name)
    storage = RepoStorage(root)
    try:
        return storage.commit_objects(
            [(ref.kind, ref.name) for ref in renames],
            [(ref.kind, ref.name) for ref in deletes],
        )
    finally:
        storage.close()


def read_object(root: str, kind: str, name: str) -> bytes:
    """Read one replicable object's bytes from a repository (path or URL)."""
    validate_object(kind, name)
    storage = RepoStorage(root)
    try:
        return storage.read_object(kind, name)
    except ObjectMissingError:
        raise ReplicationError(f"no {kind} object {name!r} in {root}") from None
    finally:
        storage.close()


class LocalMirror:
    """A mirror living in a local directory (created on first sync)."""

    def __init__(self, root: str) -> None:
        self.root = root

    def state(self) -> RepoState:
        return capture_state(self.root)

    def put(self, kind: str, name: str, blob: bytes, staged: bool = False) -> None:
        write_object(self.root, kind, name, blob, staged)

    def commit(self, renames: List[ObjectRef], deletes: List[ObjectRef]) -> int:
        return commit_objects(self.root, renames, deletes)

    def fetch(self, kind: str, name: str) -> bytes:
        return read_object(self.root, kind, name)

    def identity(self) -> Dict[str, str]:
        return source_identity(self.root)

    def close(self) -> None:  # nothing to release
        pass


class RemoteMirror:
    """A tenant on a mirror daemon, driven over the ``REPLICATE_*`` frames."""

    def __init__(self, address, repo: str, timeout: float = 30.0, retries: int = 3) -> None:
        from ..client.remote import RemoteRepository

        self.remote = RemoteRepository(address, repo, timeout=timeout, retries=retries)
        self._identity: Optional[Dict[str, str]] = None

    def _state_doc(self) -> Tuple[RepoState, Dict[str, str]]:
        from .state import normalize_state

        doc = self.remote.replicate_state()
        identity = doc.get("identity")
        self._identity = identity if isinstance(identity, dict) else {}
        return normalize_state(doc.get("state")), self._identity

    def state(self) -> RepoState:
        state, _ = self._state_doc()
        return state

    def put(self, kind: str, name: str, blob: bytes, staged: bool = False) -> None:
        validate_object(kind, name)
        self.remote.replicate_put(kind, name, blob, blob_digest(blob), staged)

    def commit(self, renames: List[ObjectRef], deletes: List[ObjectRef]) -> None:
        self.remote.replicate_commit(
            [[ref.kind, ref.name] for ref in renames],
            [[ref.kind, ref.name] for ref in deletes],
        )

    def fetch(self, kind: str, name: str) -> bytes:
        validate_object(kind, name)
        return self.remote.replicate_fetch(kind, name)

    def identity(self) -> Dict[str, str]:
        if self._identity is None:
            self._state_doc()
        return self._identity or {}

    def close(self) -> None:
        self.remote.close()


def open_target(target: str, remote: Optional[str] = None) -> ReplicationTarget:
    """CLI factory: ``target`` is a directory, or a tenant when ``remote``
    carries a daemon's ``HOST:PORT`` (validated via ``parse_address``)."""
    if remote:
        from ..client.remote import parse_address

        return RemoteMirror(parse_address(remote), target)
    return LocalMirror(target)
