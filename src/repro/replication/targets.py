"""Replication endpoints: a repository this process opens, or a daemon tenant.

Every tenant copy — ``replicate``, replica sync, failover pull, rebalance
move — is one :func:`~repro.replication.session.sync` between two
endpoints, and both ends speak the same five verbs:

* ``state()`` — the repository's :data:`RepoState`, for diffing;
* ``fetch(kind, name)`` — read one object (the source side, and repair);
* ``put(kind, name, blob, staged)`` — land one object, atomically
  (``*.tmp`` + rename), either into place or as a ``*.staged`` file;
* ``commit(renames, deletes)`` — flip staged objects live and apply
  expirations, in the caller's order;
* ``identity()`` — where the repository physically lives, so a sync or a
  repair can refuse two endpoints that are one repository.

:class:`LocalMirror` holds one :class:`~repro.storage.repo.RepoStorage`
(its own, or a daemon tenant's); :class:`RemoteMirror` drives a daemon
through the ``REPLICATE_*`` frames via
:class:`~repro.client.remote.RemoteRepository`, inheriting its pooling,
timeouts and idempotent-op retries, and reads its identity off the same
``REPLICATE_STATE`` reply as the state.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Protocol, Union, runtime_checkable

from ..errors import ObjectMissingError, ReplicationError
from ..storage.repo import RepoStorage
from .planner import ObjectRef
from .state import RepoState, blob_digest, normalize_state


@runtime_checkable
class ReplicationTarget(Protocol):
    """The verbs a mirror must support (see module docstring)."""

    def state(self) -> RepoState: ...

    def put(self, kind: str, name: str, blob: bytes, staged: bool = False) -> None: ...

    def commit(self, renames: List[ObjectRef], deletes: List[ObjectRef]) -> None: ...

    def fetch(self, kind: str, name: str) -> bytes: ...

    def identity(self) -> Dict[str, str]: ...

    def close(self) -> None: ...


class LocalMirror:
    """A repository this process opens itself: a directory (created on
    first sync) or any backend spec.

    ``location`` is a spec, or a :class:`RepoStorage` to borrow — a daemon
    hands in its tenant's own, so every ``REPLICATE_*`` request of that
    tenant goes through one set of backends; :meth:`close` leaves a
    borrowed one open.
    """

    def __init__(self, location: Union[str, RepoStorage]) -> None:
        self._owned = not isinstance(location, RepoStorage)
        self.storage = RepoStorage(location) if self._owned else location

    def state(self) -> RepoState:
        return self.storage.state()

    def put(self, kind: str, name: str, blob: bytes, staged: bool = False) -> None:
        """Land one object atomically: into place, or as ``<name>.staged``
        awaiting :meth:`commit`."""
        self.storage.write_object(kind, name, blob, staged=staged)

    def commit(self, renames: List[ObjectRef], deletes: List[ObjectRef]) -> int:
        """Flip staged objects live, then apply deletions; returns ops
        applied.  Idempotent, so an interrupted commit is simply re-run
        (:meth:`~repro.storage.repo.RepoStorage.commit_objects`)."""
        return self.storage.commit_objects(
            [(ref.kind, ref.name) for ref in renames],
            [(ref.kind, ref.name) for ref in deletes],
        )

    def fetch(self, kind: str, name: str) -> bytes:
        try:
            return self.storage.read_object(kind, name)
        except ObjectMissingError:
            raise ReplicationError(
                f"no {kind} object {name!r} in {self.storage.location.spec}"
            ) from None

    def identity(self) -> Dict[str, str]:
        return self.storage.identity()

    def close(self) -> None:
        if self._owned:
            self.storage.close()


class RemoteMirror:
    """A tenant on a daemon, driven over the ``REPLICATE_*`` frames.

    Pass ``remote=`` to borrow a :class:`~repro.client.remote.RemoteRepository`
    (say one on a :class:`~repro.cluster.client.ClusterClient`'s shared
    pool) instead of connecting to ``address``; :meth:`close` leaves a
    borrowed one open.
    """

    def __init__(
        self, address=None, repo: str = "", timeout: float = 30.0, retries: int = 3,
        *, remote=None,
    ) -> None:
        from ..client.remote import RemoteRepository

        self._owned = remote is None
        self.remote = (
            RemoteRepository(address, repo, timeout=timeout, retries=retries)
            if remote is None else remote
        )
        self._identity: Optional[Dict[str, str]] = None

    def state(self) -> RepoState:
        """One ``REPLICATE_STATE``: the state, and the identity beside it."""
        doc = self.remote.replicate_state()
        identity = doc.get("identity")
        self._identity = identity if isinstance(identity, dict) else {}
        return normalize_state(doc.get("state"))

    def put(self, kind: str, name: str, blob: bytes, staged: bool = False) -> None:
        self.remote.replicate_put(kind, name, blob, blob_digest(blob), staged)

    def commit(self, renames: List[ObjectRef], deletes: List[ObjectRef]) -> None:
        self.remote.replicate_commit(
            [[ref.kind, ref.name] for ref in renames],
            [[ref.kind, ref.name] for ref in deletes],
        )

    def fetch(self, kind: str, name: str) -> bytes:
        return self.remote.replicate_fetch(kind, name)

    def identity(self) -> Dict[str, str]:
        """Where the tenant lives, as the last :meth:`state` reported it
        (one ``REPLICATE_STATE`` when none has been read yet)."""
        if self._identity is None:
            self.state()
        return self._identity or {}

    def close(self) -> None:
        if self._owned:
            self.remote.close()


def open_target(target: str, remote: Optional[str] = None) -> ReplicationTarget:
    """CLI factory: ``target`` is a directory, or a tenant when ``remote``
    carries a daemon's ``HOST:PORT`` (validated via ``parse_address``)."""
    if remote:
        from ..client.remote import parse_address

        return RemoteMirror(parse_address(remote), target)
    return LocalMirror(target)
