"""Fault injectors layered at the system's real seams.

Three seams, all production code paths rather than test doubles:

* **Storage backend** — :class:`FaultInjectingBackend` wraps any
  :class:`~repro.storage.backend.StorageBackend` (installed process-wide
  via :func:`~repro.storage.backend.install_backend_wrapper`, so even the
  plain-directory repositories the daemon serves are covered).  Armed
  directives on the shared :class:`FaultController` fire on matching
  operations: ``enospc`` (a typed :class:`~repro.errors.StorageError` on
  ``put``, the disk-full mid-container-seal case), ``torn_write`` (land a
  truncated blob, then fail — the half-written container a crash leaves),
  ``latency`` (sleep before the call), and ``observe``, which only runs
  its callback (a crash or a kill is a callback that raises).

* **Replication target** — :class:`WireCorruptingMirror` wraps a
  :class:`~repro.replication.targets.RemoteMirror` and flips a byte in
  the shipped blob *after* the source computed its digest, emulating
  corruption on the wire; the mirror daemon's digest validation must
  reject the PUT.

* **At-rest bytes** — :func:`flip_container_byte` corrupts a stored
  container in place (silent media corruption); only a deep verify or a
  failed restore notices, and only ``repair --from-mirror`` heals.

Every fault that fires counts ``chaos.faults_injected`` and
``chaos.faults_injected.<kind>``.  The repository model in
``tests/repository_machine.py`` drives all of them, and the process-level
faults (kill a daemon, partition a listener) as its own rules.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import StorageError
from ..observability import MetricsRegistry, get_registry
from ..storage.backend import (
    StorageBackend,
    clear_backend_wrapper,
    install_backend_wrapper,
)
from ..storage.repo import RepoStorage

__all__ = [
    "FaultController",
    "FaultInjectingBackend",
    "WireCorruptingMirror",
    "flip_container_byte",
    "flip_byte",
]


def flip_byte(blob: bytes, offset: Optional[int] = None) -> bytes:
    """Return ``blob`` with one byte inverted (middle byte by default)."""
    if not blob:
        return blob
    if offset is None:
        offset = len(blob) // 2
    offset = min(offset, len(blob) - 1)
    return blob[:offset] + bytes([blob[offset] ^ 0xFF]) + blob[offset + 1 :]


@dataclass
class _Directive:
    """One armed fault: what to do, where it applies, how often."""

    kind: str
    op: Optional[str] = None  # backend verb ("put", "get", ...) or None=any
    match_url: Optional[str] = None  # substring of the backend URL
    match_name: Optional[str] = None  # prefix of the object name
    remaining: int = 1  # firings left (<0 = unlimited)
    params: Dict = field(default_factory=dict)
    callback: Optional[object] = None  # called (url, name) when fired


class FaultController:
    """Thread-safe registry of armed fault directives.

    One controller is shared by every :class:`FaultInjectingBackend` in
    the process; a test arms directives and the next matching backend
    operation trips them.  Matching is by backend verb, backend-URL
    substring (tenant roots embed the tenant name, which is how a fault
    stays pinned to its tenant) and object name prefix (``container``
    vs metadata).
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self.metrics = metrics if metrics is not None else get_registry()
        self._lock = threading.Lock()
        self._directives: List[_Directive] = []
        #: Everything that actually tripped: dicts of kind/op/url/name.
        self.fired: List[Dict] = []
        self._installed = False

    # -- lifecycle ------------------------------------------------------
    def install(self) -> None:
        """Slide the injector under every backend built from now on."""
        install_backend_wrapper(self.wrap)
        self._installed = True

    def uninstall(self) -> None:
        if self._installed:
            clear_backend_wrapper()
            self._installed = False

    def __enter__(self) -> "FaultController":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def wrap(self, backend: StorageBackend) -> StorageBackend:
        if isinstance(backend, FaultInjectingBackend):
            return backend
        return FaultInjectingBackend(backend, self)

    # -- arming ----------------------------------------------------------
    def arm(
        self,
        kind: str,
        op: Optional[str] = None,
        match_url: Optional[str] = None,
        match_name: Optional[str] = None,
        count: int = 1,
        callback: Optional[object] = None,
        **params,
    ) -> None:
        with self._lock:
            self._directives.append(
                _Directive(
                    kind=kind,
                    op=op,
                    match_url=match_url,
                    match_name=match_name,
                    remaining=count,
                    params=params,
                    callback=callback,
                )
            )

    def disarm_all(self) -> None:
        with self._lock:
            self._directives.clear()

    def note_injected(self, kind: str, **detail) -> None:
        """Record a fault injected outside the backend seam (kill, ...)."""
        with self._lock:
            self.fired.append({"kind": kind, **detail})
        self._count(kind)

    def _count(self, kind: str) -> None:
        self.metrics.inc("chaos.faults_injected")
        self.metrics.inc(f"chaos.faults_injected.{kind}")

    # -- firing ----------------------------------------------------------
    def _take(self, op: str, url: str, name: str) -> List[_Directive]:
        """Pop (or decrement) every directive matching this operation."""
        hits: List[_Directive] = []
        with self._lock:
            if not self._directives:
                return hits
            keep: List[_Directive] = []
            for d in self._directives:
                matches = (
                    (d.op is None or d.op == op)
                    and (d.match_url is None or d.match_url in url)
                    and (d.match_name is None or name.startswith(d.match_name))
                )
                if not matches:
                    keep.append(d)
                    continue
                hits.append(d)
                if d.remaining > 0:
                    d.remaining -= 1
                if d.remaining != 0:
                    keep.append(d)
            self._directives = keep
            faults = [d for d in hits if d.kind != "observe"]
            for d in faults:
                self.fired.append(
                    {"kind": d.kind, "op": op, "url": url, "name": name}
                )
        for d in faults:
            self._count(d.kind)
        return hits


class FaultInjectingBackend:
    """A :class:`StorageBackend` that consults a :class:`FaultController`.

    Pure pass-through while nothing relevant is armed — installing the
    wrapper is free for tenants no fault targets.
    """

    def __init__(self, inner: StorageBackend, controller: FaultController) -> None:
        self.inner = inner
        self.controller = controller

    # -- proxied identity -----------------------------------------------
    @property
    def url(self) -> str:
        return self.inner.url

    @property
    def prefers_ranged_reads(self) -> bool:
        return self.inner.prefers_ranged_reads

    # -- directive application ------------------------------------------
    def _apply(self, op: str, name: str, blob: Optional[bytes] = None) -> None:
        """Fire matching directives; may sleep or raise."""
        hits = self.controller._take(op, self.inner.url, name)
        for d in hits:
            if d.callback is not None:
                d.callback(self.inner.url, name)
            if d.kind == "latency":
                time.sleep(float(d.params.get("seconds", 0.05)))
            elif d.kind == "enospc":
                raise StorageError(
                    f"injected fault: no space left on device (ENOSPC) "
                    f"while writing {name!r}"
                )
            elif d.kind == "torn_write":
                if blob is not None and op in ("put", "put_meta"):
                    torn = blob[: max(1, len(blob) // 2)]
                    try:
                        getattr(self.inner, op)(name, torn)
                    except StorageError:
                        pass  # already exists: the tear hit a replay
                raise StorageError(
                    f"injected fault: write torn mid-flight for {name!r}"
                )

    # -- protocol ---------------------------------------------------------
    def put(self, name: str, blob: bytes) -> None:
        self._apply("put", name, blob)
        self.inner.put(name, blob)

    def put_meta(self, name: str, blob: bytes) -> None:
        self._apply("put_meta", name, blob)
        self.inner.put_meta(name, blob)

    def get(self, name: str) -> bytes:
        self._apply("get", name)
        return self.inner.get(name)

    def view(self, name: str):
        self._apply("get", name)
        return self.inner.view(name)

    def get_range(self, name: str, offset: int, length: int) -> bytes:
        self._apply("get", name)
        return self.inner.get_range(name, offset, length)

    def exists(self, name: str) -> bool:
        return self.inner.exists(name)

    def size(self, name: str) -> int:
        return self.inner.size(name)

    def digest(self, name: str) -> str:
        return self.inner.digest(name)

    def delete(self, name: str) -> None:
        self._apply("delete", name)
        self.inner.delete(name)

    def list(self, prefix: str = "") -> List[str]:
        return self.inner.list(prefix)

    def rename(self, name: str, new_name: str) -> None:
        self._apply("rename", name)
        self.inner.rename(name, new_name)

    def sweep_tmp(self, prefix: str = "") -> None:
        self.inner.sweep_tmp(prefix)

    def close(self) -> None:
        self.inner.close()


class WireCorruptingMirror:
    """A replication target whose next container PUT is corrupted in
    transit — after the source computed the object digest, before the
    mirror sees the bytes — so the mirror's digest validation must reject
    it.  Wraps a :class:`~repro.replication.targets.RemoteMirror` (the
    only target with a validating far side)."""

    def __init__(self, inner, controller: Optional[FaultController] = None, count: int = 1) -> None:
        from ..replication.targets import RemoteMirror

        if not isinstance(inner, RemoteMirror):
            raise StorageError(
                "corrupt_transit needs a RemoteMirror target (the mirror "
                "daemon performs the digest validation)"
            )
        self.inner = inner
        self.controller = controller
        self._remaining = count

    def state(self):
        return self.inner.state()

    def put(self, kind: str, name: str, blob: bytes, staged: bool = False) -> None:
        if self._remaining > 0 and kind == "container":
            self._remaining -= 1
            if self.controller is not None:
                self.controller.note_injected("corrupt_transit", name=name)
            from ..replication.state import blob_digest

            # Send the digest of the *good* bytes with the corrupted blob:
            # exactly what wire corruption looks like to the mirror.
            self.inner.remote.replicate_put(
                kind, name, flip_byte(blob), blob_digest(blob), staged
            )
            return
        self.inner.put(kind, name, blob, staged=staged)

    def commit(self, renames, deletes) -> None:
        self.inner.commit(renames, deletes)

    def fetch(self, kind: str, name: str) -> bytes:
        return self.inner.fetch(kind, name)

    def identity(self) -> Dict[str, str]:
        return self.inner.identity()

    def close(self) -> None:
        self.inner.close()


def flip_container_byte(
    spec: str, name: str, controller: Optional[FaultController] = None
) -> None:
    """Corrupt stored container ``name`` of the repository at ``spec`` in
    place (at-rest bit rot): one byte in the middle of the object flips."""
    storage = RepoStorage(spec)
    try:
        storage.write_object("container", name, flip_byte(storage.read_object("container", name)))
    finally:
        storage.close()
    if controller is not None:
        controller.note_injected("bitflip", name=f"containers/{name}")
