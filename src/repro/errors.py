"""Exception hierarchy for the HiDeStore reproduction.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything coming out of this package with a single ``except`` clause
while still being able to discriminate the failure domain.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ChunkingError(ReproError):
    """Invalid chunker configuration or a malformed input stream."""


class StorageError(ReproError):
    """Container or recipe storage failure."""


class ObjectMissingError(StorageError):
    """A named storage-backend object does not exist.

    The backend-level analogue of :class:`UnknownContainerError`: raised by
    :class:`~repro.storage.backend.StorageBackend` implementations when a
    ``get``/``size``/``digest``/``delete`` names an absent object.
    """


class ContainerFullError(StorageError):
    """A chunk did not fit into the container it was directed to."""


class UnknownContainerError(StorageError):
    """A container ID was referenced that the store does not hold."""


class UnknownChunkError(StorageError):
    """A fingerprint was requested from a container that does not hold it."""


class RecipeError(StorageError):
    """A recipe is missing, malformed, or its chain cannot be resolved."""


class IndexError_(ReproError):
    """Fingerprint-index failure (name avoids shadowing builtin IndexError)."""


class RestoreError(ReproError):
    """The restore pipeline could not reassemble the requested version."""


class VersionNotFoundError(ReproError):
    """A backup version ID was referenced that the system does not know."""


class RepositoryNotFoundError(ReproError):
    """A read named a repository (a spec, a daemon tenant) that does not exist.

    Only a backup creates a repository; every other operation on a missing
    one raises this and creates nothing.  A domain answer like
    :class:`VersionNotFoundError`: the cluster router does not ask a
    replica instead.
    """


class DeletionError(ReproError):
    """An expired-version deletion request was invalid (e.g. not the oldest)."""


class WorkloadError(ReproError):
    """Invalid synthetic-workload or trace configuration."""


class ReplicationError(ReproError):
    """A mirror-sync or repair operation was invalid or failed.

    Covers self-sync attempts (target resolves to the source repository),
    digest mismatches on shipped objects, and torn commit requests.
    """


class ClusterError(ReproError):
    """A sharded-cluster operation was invalid or could not complete.

    Covers malformed cluster maps, tenants whose every placement node is
    unreachable, and rebalance moves that failed verification.
    """


class NotPrimaryError(ClusterError):
    """A mutating request landed on a daemon that is not the tenant's
    acting ring primary under the daemon's current cluster map.

    The daemon-side write fence: after a promotion the old primary (or a
    client routing on a stale epoch) must not extend tenant history — a
    fork would be undetectable.  Also raised while a freshly promoted
    primary's replica has not yet passed its deep verify.  The router
    reacts by re-``refresh()``-ing its map and retrying on the *current*
    primary; the error is authoritative, never a reason to try a replica.
    """


class RemoteError(ReproError):
    """A remote backup-service operation failed.

    Raised client-side when the server reports a failure that does not map
    onto a more specific :class:`ReproError` subclass, or when the
    connection to the server is lost mid-operation.
    """


class ProtocolError(RemoteError):
    """The wire conversation violated the backup frame protocol.

    Covers malformed frames, oversized payloads, version mismatches and
    frames arriving in an impossible order — on either side of the socket.
    """


class TimeoutExceededError(RemoteError):
    """A remote request did not complete within its deadline."""


class RetryBudgetExceededError(RemoteError):
    """An operation's retry budget (attempts and/or wall-clock) ran out.

    Raised client-side instead of sleeping into the next backoff once the
    per-operation budget is spent — a flapping daemon must not absorb
    unbounded client retry time.  Carries the last transport error as its
    ``__cause__``.
    """


class ServerDrainingError(RemoteError):
    """The server is shutting down and refuses new mutating sessions."""


def error_by_name(name: str) -> type:
    """Map an exception class name back to its :class:`ReproError` subclass.

    The wire protocol sends errors as ``(class name, message)`` pairs; this
    resolves the name on the receiving side so the single-catch guarantee
    (everything derives from :class:`ReproError`) survives the network hop.
    Unknown names degrade to :class:`RemoteError`.
    """
    cls = globals().get(name)
    if isinstance(cls, type) and issubclass(cls, ReproError):
        return cls
    return RemoteError
