"""Multi-tenant repository registry + the per-repo concurrency discipline.

One daemon hosts many named repositories under a single root directory::

    <root>/<repo-name>/containers/…
    <root>/<repo-name>/recipes/…
    <root>/<repo-name>/manifests/…
    <root>/<repo-name>/checkpoint.json      (head; checkpoint-*.{bin,hdsc} parts)

The root may equally be a backend URL (:mod:`repro.storage.backend`):
``sqlite://`` roots keep one ``<name>.db`` per tenant, object-store roots
one key prefix per tenant, and a ``?archive=URL`` cold tier fans out with
the same per-tenant suffix (see :meth:`RepoLocation.child`).

Each repository carries an async :class:`ReadWriteLock`: ingest and
deletion take the *write* side (serialised — HiDeStore's double cache
deduplicates a version against its predecessor, so concurrent writers to
one repo make no semantic sense), while restores and stats take the *read*
side and run concurrently — with each other and with everything happening
on other repositories.
"""

from __future__ import annotations

import asyncio
import os
import re
import threading
from contextlib import asynccontextmanager
from typing import Dict, List

from ..errors import RepositoryNotFoundError, ReproError
from ..observability import MetricsRegistry
from ..replication.targets import LocalMirror
from ..repository import LocalRepository
from ..storage.backend import RepoLocation, parse_repo_spec

#: Tenant names: filesystem-safe, no traversal, no hidden dirs.
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


class ReadWriteLock:
    """Writer-exclusive, reader-shared asyncio lock.

    Writers serialise against each other and against all readers; readers
    only wait while a writer holds (or is acquiring) the lock.  The waiter
    count feeds the ``STATS`` frame's queue-depth gauge.
    """

    def __init__(self) -> None:
        self._gate = asyncio.Lock()
        self._readers = 0
        self._no_readers = asyncio.Event()
        self._no_readers.set()
        self.write_waiters = 0

    @asynccontextmanager
    async def read_locked(self):
        async with self._gate:  # blocks while a writer is active
            self._readers += 1
            self._no_readers.clear()
        try:
            yield
        finally:
            self._readers -= 1
            if self._readers == 0:
                self._no_readers.set()

    @asynccontextmanager
    async def write_locked(self):
        self.write_waiters += 1  # gauges queued + active writers
        try:
            async with self._gate:
                await self._no_readers.wait()
                yield
        finally:
            self.write_waiters -= 1


class RepoHandle:
    """One hosted repository: engine front end, lock, service counters."""

    def __init__(self, name: str, repository: LocalRepository) -> None:
        self.name = name
        self.repository = repository
        #: The same tenant as a replication target (``REPLICATE_*`` frames).
        self.mirror = LocalMirror(repository.storage)
        self.lock = ReadWriteLock()
        self.active_ops = 0
        self.counters: Dict[str, int] = {
            "backups": 0,
            "backups_failed": 0,
            "bytes_ingested": 0,
            "chunks_ingested": 0,
            "restores": 0,
            "bytes_restored": 0,
            "deletes": 0,
            "errors": 0,
        }

    # ------------------------------------------------------------------
    @asynccontextmanager
    async def _counted(self, locked):
        async with locked:
            self.active_ops += 1
            try:
                yield
            finally:
                self.active_ops -= 1

    def reading(self):
        """The read lock, counted in the ``active_sessions`` gauge."""
        return self._counted(self.lock.read_locked())

    def writing(self):
        """The write lock, counted in the ``active_sessions`` gauge."""
        return self._counted(self.lock.write_locked())

    def note_backup(self, report: Dict) -> None:
        self.counters["backups"] += 1
        self.counters["bytes_ingested"] += int(report.get("logical_bytes", 0))
        self.counters["chunks_ingested"] += int(report.get("total_chunks", 0))

    def note_backup_failed(self) -> None:
        self.counters["backups_failed"] += 1

    def note_restore(self, nbytes: int) -> None:
        self.counters["restores"] += 1
        self.counters["bytes_restored"] += nbytes

    def note_delete(self) -> None:
        self.counters["deletes"] += 1

    def stats(self) -> Dict:
        """The per-repo ``STATS`` document (repository + service counters)."""
        doc = dict(self.repository.stats())
        doc["repo"] = self.name
        doc["counters"] = dict(self.counters)
        doc["active_sessions"] = self.active_ops
        doc["write_queue_depth"] = self.lock.write_waiters
        return doc


class RepositoryRegistry:
    """Maps tenant names to live :class:`RepoHandle` instances."""

    def __init__(
        self,
        root: str,
        history_depth: int = 1,
        compress: bool = False,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        self.root = root
        self.history_depth = history_depth
        self.compress = compress
        self.metrics = metrics
        #: A bare directory is a ``file://`` location like any other.
        self.location: RepoLocation = parse_repo_spec(root)
        if self.location.scheme in ("file", "sqlite"):
            # Both schemes key tenants off a local directory (per-tenant
            # subdirectory / per-tenant .db file); object stores need no
            # local skeleton.
            os.makedirs(self.location.path, exist_ok=True)
        self._handles: Dict[str, RepoHandle] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def validate_name(self, name: object) -> str:
        if not isinstance(name, str) or not _NAME_RE.match(name):
            raise ReproError(
                f"invalid repository name {name!r}: use 1-64 of [A-Za-z0-9._-], "
                "not starting with a dot or dash"
            )
        return name

    def get(self, name: object, create: bool = False) -> RepoHandle:
        """The handle for ``name``; ``create=False`` requires it to exist."""
        name = self.validate_name(name)
        with self._lock:
            handle = self._handles.get(name)
            if handle is not None:
                return handle
            repo_root = self.location.child(name)
            if not create and not parse_repo_spec(repo_root).exists():
                raise RepositoryNotFoundError(f"unknown repository {name!r}")
            handle = self._handles[name] = RepoHandle(
                name,
                LocalRepository(
                    repo_root, history_depth=self.history_depth, compress=self.compress,
                    metrics=self.metrics,
                ),
            )
            return handle

    def drop(self, name: str) -> int:
        """Remove one tenant's storage entirely; returns objects removed.

        Rebalance cleanup: the caller must hold the tenant's write lock
        (no in-flight operation survives the removal) and must only call
        this after the tenant's new home deep-verified its copy.  The open
        handle is closed, every replicable object is deleted on whichever
        tier holds it, then :meth:`RepoStorage.remove` deletes the tenant's
        local skeleton (its directory, or its ``.db`` with the WAL files).
        """
        from ..storage.repo import SECTIONS, RepoStorage

        name = self.validate_name(name)
        with self._lock:
            handle = self._handles.pop(name, None)
            if handle is not None:
                handle.repository.close()
            storage = RepoStorage(self.location.child(name))
            removed = 0
            if storage.exists():
                state = storage.state()
                for kind, section in SECTIONS.items():
                    for short in state[section]:
                        storage.delete_object(kind, short)
                        removed += 1
                removed = max(removed, 1)
            storage.remove()
            return removed

    def repo_names(self) -> List[str]:
        """Every hosted repository: on the backend plus opened this session."""
        names = set(self._handles)
        names.update(
            entry for entry in self.location.tenant_names() if _NAME_RE.match(entry)
        )
        return sorted(names)
