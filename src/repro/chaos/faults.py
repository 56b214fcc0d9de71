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
  ``latency`` (sleep before the call), ``corrupt_read`` (flip a byte in
  the returned blob).

* **Replication target** — :class:`WireCorruptingMirror` wraps a
  :class:`~repro.replication.targets.RemoteMirror` and flips a byte in
  the shipped blob *after* the source computed its digest, emulating
  corruption on the wire; the mirror daemon's digest validation must
  reject the PUT.

* **At-rest bytes** — :func:`flip_container_byte` corrupts a sealed
  container file in place (silent media corruption); only a deep verify
  or a failed restore notices, and only ``repair --from-mirror`` heals.

Process-level faults (SIGKILL a daemon, partition a listener) live on
the deployment shapes in :mod:`repro.chaos.deploy` — they are lifecycle
actions, not data-path wrappers.
"""

from __future__ import annotations

import os
import random
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
    the process; the driver arms directives at the scheduled fault sites
    and the next matching backend operation trips them.  Matching is by
    backend verb, backend-URL substring (tenant roots embed the tenant
    name, which is how a fault stays pinned to its tenant) and object
    name prefix (``containers/`` vs metadata).
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

    def armed_count(self) -> int:
        with self._lock:
            return len(self._directives)

    def note_injected(self, kind: str, **detail) -> None:
        """Record a fault injected outside the backend seam (kill, ...)."""
        with self._lock:
            self.fired.append({"kind": kind, **detail})
        self.metrics.inc("chaos.faults_injected")

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
            for d in hits:
                self.fired.append(
                    {"kind": d.kind, "op": op, "url": url, "name": name}
                )
        for _ in hits:
            self.metrics.inc("chaos.faults_injected")
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
    def _apply(self, op: str, name: str, blob: Optional[bytes] = None) -> Optional[bytes]:
        """Fire matching directives; may sleep, raise, or mutate ``blob``."""
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
            elif d.kind == "corrupt_read":
                if blob is not None:
                    blob = flip_byte(blob)
        return blob

    # -- protocol ---------------------------------------------------------
    def put(self, name: str, blob: bytes) -> None:
        self._apply("put", name, blob)
        self.inner.put(name, blob)

    def put_meta(self, name: str, blob: bytes) -> None:
        self._apply("put_meta", name, blob)
        self.inner.put_meta(name, blob)

    def get(self, name: str) -> bytes:
        blob = self.inner.get(name)
        out = self._apply("get", name, blob)
        return blob if out is None else out

    def get_range(self, name: str, offset: int, length: int) -> bytes:
        blob = self.inner.get_range(name, offset, length)
        out = self._apply("get", name, blob)
        return blob if out is None else out

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
    repo_root: str,
    rng: Optional[random.Random] = None,
    controller: Optional[FaultController] = None,
) -> str:
    """Corrupt one sealed container file in place (at-rest bit rot).

    Picks a container deterministically (seeded ``rng``) from the sorted
    listing and inverts one byte in the middle of its payload.  Returns
    the corrupted file's object name; raises :class:`StorageError` when
    the repository has no sealed containers yet.
    """
    containers_dir = os.path.join(repo_root, "containers")
    try:
        names = sorted(
            n for n in os.listdir(containers_dir) if n.endswith(".hdsc")
        )
    except OSError:
        names = []
    if not names:
        raise StorageError(f"no sealed containers under {repo_root!r} to corrupt")
    pick = names[-1] if rng is None else rng.choice(names)
    path = os.path.join(containers_dir, pick)
    size = os.path.getsize(path)
    offset = size // 2
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ 0xFF]))
    if controller is not None:
        controller.note_injected("bitflip", name=f"containers/{pick}")
    return f"containers/{pick}"
