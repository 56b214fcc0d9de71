"""Repository storage composition: one place that knows where bytes live.

A repository is four object kinds — containers, recipes, manifests, the
checkpoint (a head plus its parts) — and :class:`RepoStorage` maps each kind
onto the storage backends a repo spec names (see :class:`~repro.storage.backend.
RepoLocation`).  The default mapping puts everything on the primary
backend; a spec with ``?archive=URL`` sends the **container objects** to
the archive backend (the cold tier) while the metadata stays on
the primary (hot) backend — safe precisely because container objects are
written once (§4.2; an active container's object too), so one reads
identically from any tier.  The price: the active pool lives on the cold
tier as well, so every open reads it from there, and on evolving data the
short-lived active objects are written to and released from the cold
tier (EXPERIMENTS.md, "Mixed tier").

Every scheme takes the same path: containers are a
:class:`~repro.storage.container_store.BackendContainerStore` and recipes a
:class:`~repro.storage.recipe.BackendRecipeStore` on the backend that holds
their kind, under the ``containers/`` and ``recipes/`` prefixes.  On a plain
directory those names are the historical paths, each written ``*.tmp`` +
rename, so a repository written before backends existed opens unchanged;
and every mutation of a directory repository passes the backend wrapper
hook under the names replication and repair use.

Beyond the engine stores, this module exposes the *replicable-object*
surface (read/write/commit/state by kind + name) that replication,
repair, and backup rollback drive — one implementation for every
backend instead of the file-only helpers they grew up with.  It is also
the one place the object vocabulary lives: the kinds, their sections in a
state snapshot, their name patterns and the staging suffix.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import socket
from typing import Dict, List, Optional, Set, Tuple, Union

from ..errors import ObjectMissingError, ReplicationError, ReproError
from ..observability import MetricsRegistry, get_registry
from .backend import RepoLocation, StorageBackend, parse_repo_spec
from .container_store import BackendContainerStore
from .io_model import IOStats
from .recipe import BackendRecipeStore

__all__ = [
    "RepoStorage",
    "object_name",
    "SECTIONS",
    "STAGED_SUFFIX",
    "CHECKPOINT_NAME",
]

#: Replicable object kinds -> their section in a state snapshot, in ship
#: order (containers are invisible until a recipe references them; the
#: checkpoint commits last).
SECTIONS = {
    "container": "containers",
    "manifest": "manifests",
    "recipe": "recipes",
    "checkpoint": "checkpoint",
}

#: Suffix of staged (shipped but not yet committed) mirror objects.  Not
#: ``.tmp`` — the stores sweep ``*.tmp`` on open, and a staged object must
#: survive a mirror restart mid-sync.
STAGED_SUFFIX = ".staged"

#: The checkpoint head: the commit record that names the checkpoint parts.
CHECKPOINT_NAME = "checkpoint.json"

_PREFIXES = {
    "container": "containers/",
    "recipe": "recipes/",
    "manifest": "manifests/",
    "checkpoint": "",
}

#: The whole name vocabulary per kind.  Anything else is rejected — these
#: names arrive over the wire and are joined under the tenant root.  Every
#: name of a kind starts with the kind's own word, which is what listings
#: use as their prefix.  A container object is archival or, while the
#: checkpoint head names it under ``active``, an active container: one name
#: for its whole life (:mod:`repro.core.checkpoint`).  Checkpoint parts end
#: in the first 16 hex digits of their SHA-256; ``checkpoint-active-*``
#: parts are what a v4 head stored active containers in, read (and
#: replicated) until that repository's next save.
_PATTERNS = {
    "container": re.compile(r"^container-(\d{8})\.hdsc$"),
    "recipe": re.compile(r"^recipe-(\d{8})\.hdsr$"),
    "manifest": re.compile(r"^manifest-(\d{8})\.txt$"),
    "checkpoint": re.compile(
        r"^checkpoint(?:\.json|-tables-[0-9a-f]{16}\.bin|-active-\d{8}-[0-9a-f]{16}\.hdsc"
        r"|-demoted-\d{8}-[0-9a-f]{16}\.bin)$"
    ),
}


def object_name(kind: str, name: str) -> str:
    """Vet one (kind, name) pair from a plan or a wire frame; returns the
    object's backend name (its path relative to the repository root)."""
    pattern = _PATTERNS.get(kind)
    if pattern is None:
        raise ReplicationError(f"unknown replication object kind {kind!r}")
    if not isinstance(name, str) or not pattern.match(name):
        raise ReplicationError(f"invalid {kind} object name {name!r}")
    return _PREFIXES[kind] + name


class RepoStorage:
    """All reads and writes of one repository's objects, by kind.

    Args:
        spec: a repo spec string or a parsed :class:`RepoLocation`.
        compress: zlib-compress container blobs (engine stores only).
        metrics: the registry the engine stores' ledger records into.
    """

    def __init__(
        self,
        spec: Union[str, RepoLocation],
        compress: bool = False,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.location = spec if isinstance(spec, RepoLocation) else parse_repo_spec(spec)
        self.compress = compress
        self.metrics = metrics if metrics is not None else get_registry()
        self._primary: Optional[StorageBackend] = None
        self._archive: Optional[StorageBackend] = None

    # ------------------------------------------------------------------
    # Backends
    # ------------------------------------------------------------------
    def primary(self) -> StorageBackend:
        if self._primary is None:
            self._primary = self.location.open_primary()
        return self._primary

    def container_backend(self) -> StorageBackend:
        """Where sealed containers live: the cold tier when one is named."""
        if self.location.archive_url is None:
            return self.primary()
        if self._archive is None:
            self._archive = self.location.open_archive()
        return self._archive

    def _backend_for(self, kind: str) -> StorageBackend:
        return self.container_backend() if kind == "container" else self.primary()

    def _names(self, kind: str) -> List[str]:
        """Short names of the objects of ``kind`` present, off the backend."""
        prefix = _PREFIXES[kind]
        pattern = _PATTERNS[kind]
        return [
            name[len(prefix) :]
            for name in self._backend_for(kind).list(prefix + kind)
            if pattern.match(name[len(prefix) :])
        ]

    def _ids(self, kind: str) -> List[int]:
        return sorted(int(_PATTERNS[kind].match(name).group(1)) for name in self._names(kind))

    def close(self) -> None:
        for backend in (self._primary, self._archive):
            if backend is not None:
                backend.close()
        self._primary = self._archive = None

    def exists(self) -> bool:
        return self.location.exists()

    def remove(self) -> None:
        """Close the backends and delete what opening a fresh ``file://`` or
        ``sqlite://`` repository here created: its directory or its ``.db``."""
        self.close()
        if self.location.scheme == "file":
            shutil.rmtree(self.location.path, ignore_errors=True)
        elif self.location.scheme == "sqlite":
            for suffix in ("", "-wal", "-shm"):
                try:
                    os.remove(self.location.path + suffix)
                except FileNotFoundError:
                    pass

    # ------------------------------------------------------------------
    # Engine stores
    # ------------------------------------------------------------------
    def container_store(self) -> BackendContainerStore:
        return BackendContainerStore(
            self.container_backend(),
            stats=IOStats(metrics=self.metrics),
            compress=self.compress,
            prefix=_PREFIXES["container"],
        )

    def recipe_store(self) -> BackendRecipeStore:
        return BackendRecipeStore(
            self.primary(), IOStats(metrics=self.metrics), prefix=_PREFIXES["recipe"]
        )

    # ------------------------------------------------------------------
    # Manifests
    # ------------------------------------------------------------------
    @staticmethod
    def manifest_name(version_id: int) -> str:
        return f"manifest-{version_id:08d}.txt"

    def write_manifest(self, version_id: int, text: str) -> None:
        name = object_name("manifest", self.manifest_name(version_id))
        blob = text.encode("utf-8")
        self.primary().put_meta(name, blob)
        self.metrics.inc("store.manifest_write_bytes", len(blob))

    def read_manifest(self, version_id: int) -> Optional[str]:
        name = object_name("manifest", self.manifest_name(version_id))
        try:
            return self.primary().get(name).decode("utf-8")
        except ObjectMissingError:
            return None

    def delete_manifest(self, version_id: int) -> None:
        name = object_name("manifest", self.manifest_name(version_id))
        try:
            self.primary().delete(name)
        except ObjectMissingError:
            pass

    def manifest_ids(self) -> List[int]:
        return self._ids("manifest")

    # ------------------------------------------------------------------
    # Checkpoint
    # ------------------------------------------------------------------
    def has_checkpoint(self) -> bool:
        return self.primary().exists(CHECKPOINT_NAME)

    def read_checkpoint_document(self) -> Dict:
        """The checkpoint head (or a whole v1 document) — a few KB of JSON."""
        try:
            blob = self.primary().get(CHECKPOINT_NAME)
        except ObjectMissingError:
            raise ReproError(f"no checkpoint in {self.location.spec}") from None
        return json.loads(blob.decode("utf-8"))

    def read_checkpoint_part(self, name: str) -> bytes:
        return self.primary().get(object_name("checkpoint", name))

    def write_checkpoint_document(self, document) -> None:
        """Commit one :class:`~repro.core.checkpoint.CheckpointDocument`:
        its unwritten parts and container objects, then the head, then what
        it unnamed."""
        head_bytes = document.write(self.primary(), CHECKPOINT_NAME)
        self.metrics.inc("store.checkpoint_head_write_bytes", head_bytes)
        self.metrics.inc(
            "store.checkpoint_part_write_bytes", sum(map(len, document.new_parts.values()))
        )

    def sweep_checkpoint_debris(self) -> int:
        """Delete checkpoint debris; returns how many objects were judged debris.

        Debris is a part the head does not name — a save that died before
        its head, the stale parts of one that died after it, or a sync that
        landed parts and never renamed the head — and a container object
        the head lists as ``released`` that no deletion tag or ``active``
        entry names (a save that died before deleting it).  Without a head
        no part is named and nothing is released; with an unreadable one
        nothing is judged.  For writers only — a sync in flight has landed
        parts the head does not name *yet*.
        """
        named = {CHECKPOINT_NAME}
        released: Set[int] = set()
        if self.has_checkpoint():
            try:
                head = self.read_checkpoint_document()
                named.update(ref["name"] for ref in head.get("parts", ()))
                released = {int(cid) for cid in head.get("released", ())}
                released -= {int(ref["cid"]) for ref in head.get("active", ())}
                for cids in head.get("deletion_tags", {}).values():
                    released.difference_update(int(cid) for cid in cids)
            except (ValueError, KeyError, TypeError, AttributeError):
                return 0
        debris = [name for name in self._names("checkpoint") if name not in named]
        for name in debris:
            self.delete_object("checkpoint", name)
        for cid in sorted(released):
            self.delete_container_object(cid)
        return len(debris) + len(released)

    # ------------------------------------------------------------------
    # Replicable-object surface (replication / repair / rollback)
    # ------------------------------------------------------------------
    def state(self) -> Dict[str, Dict[str, Dict]]:
        """Snapshot the repository's replicable objects (a ``RepoState``).

        Write-once objects — containers, checkpoint parts — carry size only
        (a name never changes its content, so presence + size is the whole
        identity and capture stays O(metadata)); recipes, manifests and the
        checkpoint head carry size and digest.
        """
        if self.location.scheme == "file" and not self.exists():  # looking creates no directory
            return {section: {} for section in SECTIONS.values()}
        state: Dict[str, Dict[str, Dict]] = {}
        for kind, section in SECTIONS.items():
            backend = self._backend_for(kind)
            objects = state[section] = {}
            for short in self._names(kind):
                name = _PREFIXES[kind] + short
                objects[short] = {"size": backend.size(name)}
                if kind in ("recipe", "manifest") or short == CHECKPOINT_NAME:
                    objects[short]["digest"] = backend.digest(name)
        return state

    def identity(self) -> Dict[str, str]:
        """Where this repository physically lives, for self-sync detection.

        ``file://`` repositories keep the historical host + realpath form
        (so a URL spec and the bare path it names compare equal); other
        schemes use an empty host plus the canonical URL — an address that
        is the same from every client machine, which is exactly the
        self-sync question for shared backends.
        """
        if self.location.scheme == "file":
            return {
                "host": socket.gethostname(),
                "path": os.path.realpath(self.location.path),
            }
        return {"host": "", "path": self.location.canonical_url()}

    def read_object(self, kind: str, name: str) -> bytes:
        return self._backend_for(kind).get(object_name(kind, name))

    def local_path(self, kind: str, name: str) -> Optional[str]:
        """The object's file when the repository is a plain local directory
        (what ``os.sendfile`` can ship), else ``None``."""
        if not self.location.is_file:
            return None
        return os.path.join(self.location.path, *object_name(kind, name).split("/"))

    def object_exists(self, kind: str, name: str) -> bool:
        return self._backend_for(kind).exists(object_name(kind, name))

    def write_object(self, kind: str, name: str, blob: bytes, staged: bool = False) -> None:
        """Atomically land one object (optionally as ``*.staged``).

        Mirror-side writes replace — repair lands a validated blob over a
        damaged container, the checkpoint head is rewritten by design —
        immutability of live containers and recipes is enforced by their
        stores, not here.
        """
        target = object_name(kind, name)
        if staged:
            target += STAGED_SUFFIX
        self._backend_for(kind).put_meta(target, blob)

    def delete_object(self, kind: str, name: str) -> None:
        try:
            self._backend_for(kind).delete(object_name(kind, name))
        except ObjectMissingError:
            pass

    def commit_objects(
        self, renames: List[Tuple[str, str]], deletes: List[Tuple[str, str]]
    ) -> int:
        """Flip staged objects live and apply deletions; returns ops applied.

        Idempotent: a rename whose staged object is gone but whose final
        object exists already happened; a delete of a missing object
        already happened.  Nothing is renamed unless every part the staged
        checkpoint head names is in place: parts land unstaged, ahead of
        the commit, and a head made live over a missing part is a
        repository that does not open.
        """
        if ("checkpoint", CHECKPOINT_NAME) in renames:
            self._require_staged_head_parts()
        applied = 0
        for kind, name in renames:
            target = object_name(kind, name)
            backend = self._backend_for(kind)
            if backend.exists(target + STAGED_SUFFIX):
                backend.rename(target + STAGED_SUFFIX, target)
                applied += 1
            elif not backend.exists(target):
                raise ReplicationError(
                    f"commit: no staged or final {kind} {name!r} on the mirror"
                )
        for kind, name in deletes:
            target = object_name(kind, name)
            try:
                self._backend_for(kind).delete(target)
                applied += 1
            except ObjectMissingError:
                pass
        return applied

    def _require_staged_head_parts(self) -> None:
        backend = self.primary()
        try:
            head = json.loads(backend.get(CHECKPOINT_NAME + STAGED_SUFFIX))
            objects = [("checkpoint", ref["name"], ref["size"]) for ref in head.get("parts", ())]
            objects += [
                ("container", f"container-{int(ref['cid']):08d}.hdsc", ref["size"])
                for ref in head.get("active", ())
            ]
        except ObjectMissingError:
            return  # renamed already: this commit is a replay
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise ReplicationError(f"commit: the staged checkpoint head does not parse: {exc}")
        for kind, name, size in objects:
            target = object_name(kind, name)
            holder = self._backend_for(kind)
            if not holder.exists(target) or holder.size(target) != size:
                raise ReplicationError(
                    f"commit: the staged checkpoint head names {kind} {name!r}, "
                    "which is not on the mirror; sync again"
                )

    # ------------------------------------------------------------------
    # Container-object helpers (rollback / repair scans)
    # ------------------------------------------------------------------
    def container_object_ids(self) -> List[int]:
        """IDs of container objects present, straight off the backend."""
        return self._ids("container")

    def delete_container_object(self, container_id: int) -> None:
        name = _PREFIXES["container"] + f"container-{container_id:08d}.hdsc"
        try:
            self.container_backend().delete(name)
        except ObjectMissingError:
            pass

    def sweep_tmp(self) -> None:
        """Remove ``*.tmp`` litter on every backend this repository uses."""
        self.primary().sweep_tmp()
        if self.location.archive_url is not None:
            self.container_backend().sweep_tmp()

    def sweep(self) -> None:
        """Remove crash litter: ``*.tmp`` files and checkpoint debris."""
        self.sweep_tmp()
        self.sweep_checkpoint_debris()
