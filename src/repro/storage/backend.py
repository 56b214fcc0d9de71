"""URL-addressed storage backends: where repository bytes physically live.

The paper's middleware separates logical dedup state from the physical
placement of sealed containers (§4.2: archival containers are immutable
once sealed) — so the *where* of container bytes is swappable without
touching restore semantics.  This module is that seam: a small, explicit
:class:`StorageBackend` protocol over **named immutable blobs** plus a
tiny **mutable-metadata surface**, selected by URL:

* ``file://PATH`` (or a bare path) — one file per object under a
  directory; the historical layout, byte-identical to what the CLI has
  always written.
* ``sqlite://PATH`` — all objects in one SQLite database file; a
  metadata + small-object backend (repository metadata, recipes,
  manifests, checkpoints, or whole small repositories in a single file).
* ``s3://HOST:PORT/BUCKET[/PREFIX]`` — an S3-style object store speaking
  a minimal HTTP dialect (ranged ``GET``, conditional ``PUT``); see
  :mod:`repro.storage.object_store` and the local
  :class:`~repro.storage.fake_s3.FakeS3Server`.

:class:`MemoryBackend` keeps objects in a dict and has no URL: it holds the
stores of an engine built without any (simulations, the paper's figures).

Protocol vocabulary (the verbs every backend must honour):

* ``put(name, blob)`` — land an **immutable** object atomically; a second
  ``put`` of the same name raises (sealed containers never change);
* ``put_meta(name, blob)`` — land a **mutable** object atomically
  (recipes, manifests, checkpoints — the §4.3 chain rewrites these);
* ``get(name)`` / ``get_range(name, offset, length)`` — whole or ranged
  reads (ranged reads feed the prefetching restore pool with parallel
  ranged GETs on object stores);
* ``view(name)`` — the whole object as a read-only buffer: a mapping of
  the file on ``file://`` (a read copies only the bytes it keeps), the
  ``get`` bytes elsewhere;
* ``exists`` / ``size`` / ``digest`` — metadata without shipping bytes;
* ``delete`` / ``list(prefix)`` / ``rename`` — expiry, discovery, and
  staged-object commits;
* ``sweep_tmp(prefix)`` — crash-litter hygiene (a no-op on transactional
  backends).

Repository *specs* build on backend URLs: :func:`parse_repo_spec` accepts
a bare directory (implicit ``file://``) or any backend URL, plus an
optional ``?archive=URL`` query naming a second backend for the cold
tier — sealed archival containers land there while the hot mutable
metadata stays on the primary backend.  Immutability is what makes the
mixing safe: a sealed container reads identically from any tier.

Object names are relative, ``/``-separated, and validated — they arrive
over the wire (replication frames) and are joined under roots.
"""

from __future__ import annotations

import hashlib
import mmap
import os
import re
import resource
import sqlite3
import threading
import weakref
from typing import Dict, List, Optional, Protocol, runtime_checkable
from urllib.parse import parse_qs, quote, unquote

from ..errors import ObjectMissingError, StorageError

__all__ = [
    "StorageBackend",
    "FileBackend",
    "MemoryBackend",
    "SQLiteBackend",
    "RepoLocation",
    "open_backend",
    "parse_repo_spec",
    "validate_object_name",
    "SCHEMES",
    "install_backend_wrapper",
    "clear_backend_wrapper",
    "wrap_backend",
]


_CONTROL = re.compile(r"[\x00-\x1f\x7f]")


def validate_object_name(name: str) -> str:
    """Vet one backend object name; returns it.

    Names are relative ``/``-separated paths ("containers/container-
    00000001.hdsc", "checkpoint.json").  They are joined under backend
    roots and embedded in URLs, so traversal components, absolute paths
    and control characters are rejected.
    """
    if not isinstance(name, str) or not name:
        raise StorageError("empty storage object name")
    if _CONTROL.search(name):
        raise StorageError(f"control character in object name {name!r}")
    if name.startswith("/") or "\\" in name or (len(name) >= 2 and name[1] == ":"):
        raise StorageError(f"absolute object name {name!r}")
    for part in name.split("/"):
        if part in ("", ".", ".."):
            raise StorageError(f"unsafe component in object name {name!r}")
    return name


# ----------------------------------------------------------------------
# Backend wrapper hook (fault injection, tracing)
# ----------------------------------------------------------------------
#: Process-global backend wrapper: every backend construction that goes
#: through this module (``open_backend``, ``RepoLocation.open_primary`` /
#: ``open_archive``, the directory stores) passes the fresh backend
#: through the installed callable.  Fault injection uses this to slide
#: a :class:`~repro.chaos.faults.FaultInjectingBackend` under *every*
#: repository in the process — including the plain-directory repos the
#: daemon serves — without the owning layers knowing.
_BACKEND_WRAPPER = None
_WRAPPER_LOCK = threading.Lock()


def install_backend_wrapper(wrapper) -> None:
    """Install a process-global ``backend -> backend`` wrapper.

    Only one wrapper may be installed at a time (a fault controller owns the
    process); installing over an existing one raises so two harnesses
    cannot silently stack.
    """
    global _BACKEND_WRAPPER
    with _WRAPPER_LOCK:
        if _BACKEND_WRAPPER is not None and wrapper is not None:
            raise StorageError("a backend wrapper is already installed")
        _BACKEND_WRAPPER = wrapper


def clear_backend_wrapper() -> None:
    """Remove the installed wrapper (no-op when none is installed)."""
    global _BACKEND_WRAPPER
    with _WRAPPER_LOCK:
        _BACKEND_WRAPPER = None


def wrap_backend(backend: "StorageBackend") -> "StorageBackend":
    """Pass a freshly constructed backend through the installed wrapper."""
    wrapper = _BACKEND_WRAPPER
    return backend if wrapper is None else wrapper(backend)


@runtime_checkable
class StorageBackend(Protocol):
    """Named-blob storage behind a URL (see module docstring).

    Implementations must be safe for concurrent reads from multiple
    threads (the prefetching restore pool issues parallel ``get`` /
    ``get_range`` calls); writes may be externally serialised by the
    owning layer.  ``prefers_ranged_reads`` advertises that partial
    object reads are genuinely cheaper than whole-object reads (object
    stores, SQLite blobs) — the container store uses it to decide whether
    to fetch only the chunk ranges a restore plan needs.
    """

    #: Canonical URL this backend was opened from.
    url: str
    #: Whether ranged reads beat whole-object reads on this backend.
    prefers_ranged_reads: bool

    def put(self, name: str, blob: bytes) -> None:
        """Store an immutable object atomically; raise if it exists."""
        ...

    def put_meta(self, name: str, blob: bytes) -> None:
        """Store (or atomically replace) a mutable metadata object."""
        ...

    def get(self, name: str) -> bytes: ...

    def view(self, name: str):
        """The whole object as a read-only buffer (``bytes`` or a mapping)."""
        ...

    def get_range(self, name: str, offset: int, length: int) -> bytes: ...

    def exists(self, name: str) -> bool: ...

    def size(self, name: str) -> int: ...

    def digest(self, name: str) -> str:
        """Hex sha256 of the object's bytes."""
        ...

    def delete(self, name: str) -> None: ...

    def list(self, prefix: str = "") -> List[str]: ...

    def rename(self, name: str, new_name: str) -> None:
        """Move an object over ``new_name`` (replacing it) in one step."""
        ...

    def sweep_tmp(self, prefix: str = "") -> None:
        """Remove crash litter below ``prefix`` (no-op if transactional)."""
        ...

    def close(self) -> None: ...


# ----------------------------------------------------------------------
# file:// — one file per object (the historical layout)
# ----------------------------------------------------------------------
#: Every live mapping :meth:`FileBackend.view` handed out, process-wide
#: like the descriptors they hold; one leaves when its last buffer drops.
_MAPPED: "weakref.WeakSet[mmap.mmap]" = weakref.WeakSet()
_MAPPING = threading.Lock()  # the count is checked, then grown


class FileBackend:
    """Objects as files under ``root``; writes are ``*.tmp`` + rename.

    This is the layout the ``hidestore`` CLI has always produced: object
    name ``containers/container-00000001.hdsc`` is exactly that path under
    the repository directory, so a ``file://`` repository is byte-identical
    to one written before backends existed.

    :meth:`view` maps the file read-only instead of copying it.  That is
    safe because no object is ever modified in place: every write lands a
    new file by rename, and a delete only unlinks, so a mapping keeps the
    bytes it was opened on.  Truncating a mapped file in place would not be
    safe (a later touch of a page past the new end raises ``SIGBUS``).
    """

    prefers_ranged_reads = False  # a mapped read touches only what it serves

    def __init__(self, root: str) -> None:
        self.root = root
        self.url = "file://" + os.path.abspath(root)
        os.makedirs(root, exist_ok=True)

    # -- helpers -------------------------------------------------------
    def _path(self, name: str) -> str:
        return os.path.join(self.root, *validate_object_name(name).split("/"))

    def _write(self, name: str, blob: bytes) -> None:
        path = self._path(name)
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        tmp = path + ".tmp"
        try:
            with open(tmp, "wb") as handle:
                handle.write(blob)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.remove(tmp)
            except OSError:
                pass
            raise

    # -- protocol ------------------------------------------------------
    def put(self, name: str, blob: bytes) -> None:
        if os.path.exists(self._path(name)):
            raise StorageError(f"immutable object {name!r} already stored")
        self._write(name, blob)

    def put_meta(self, name: str, blob: bytes) -> None:
        self._write(name, blob)

    def get(self, name: str) -> bytes:
        try:
            with open(self._path(name), "rb") as handle:
                return handle.read()
        except FileNotFoundError:
            raise ObjectMissingError(f"no object {name!r} in {self.url}") from None

    def view(self, name: str):
        """A read-only ``mmap`` of the file (``b""`` when it is empty); it
        is unmapped when the last buffer exported from it is dropped.

        A live mapping holds a file descriptor of its own (CPython dups the
        file's), so the process keeps at most a quarter of its soft
        ``RLIMIT_NOFILE`` mapped: past that, or when a mapping cannot be
        made, the read is a copy of the file.  Callers that hold many reads
        (chunk caches, held runs) then cannot starve other opens.
        """
        try:
            with open(self._path(name), "rb") as handle:
                if not os.fstat(handle.fileno()).st_size:
                    return b""
                soft, _hard = resource.getrlimit(resource.RLIMIT_NOFILE)
                with _MAPPING:
                    if soft == resource.RLIM_INFINITY or len(_MAPPED) < soft // 4:
                        try:
                            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
                            _MAPPED.add(mapped)
                            return mapped
                        except OSError:
                            pass
                return handle.read()
        except FileNotFoundError:
            raise ObjectMissingError(f"no object {name!r} in {self.url}") from None

    def get_range(self, name: str, offset: int, length: int) -> bytes:
        try:
            with open(self._path(name), "rb") as handle:
                handle.seek(offset)
                return handle.read(length)
        except FileNotFoundError:
            raise ObjectMissingError(f"no object {name!r} in {self.url}") from None

    def exists(self, name: str) -> bool:
        return os.path.exists(self._path(name))

    def size(self, name: str) -> int:
        try:
            return os.path.getsize(self._path(name))
        except OSError:
            raise ObjectMissingError(f"no object {name!r} in {self.url}") from None

    def digest(self, name: str) -> str:
        sha = hashlib.sha256()
        try:
            with open(self._path(name), "rb") as handle:
                while True:
                    block = handle.read(1 << 20)
                    if not block:
                        break
                    sha.update(block)
        except FileNotFoundError:
            raise ObjectMissingError(f"no object {name!r} in {self.url}") from None
        return sha.hexdigest()

    def delete(self, name: str) -> None:
        try:
            os.remove(self._path(name))
        except FileNotFoundError:
            raise ObjectMissingError(f"no object {name!r} in {self.url}") from None

    def list(self, prefix: str = "") -> List[str]:
        out: List[str] = []
        # Walk only what the prefix can reach: its directory part, and at
        # that level only the entries its last component matches; below
        # that, everything.  Like ``os.walk``, an unreadable directory is
        # skipped and a symlinked one is not entered.
        head, _, tail = prefix.rpartition("/")
        pending = [(self._path(head) if head else self.root, head + "/" if head else "", tail)]
        while pending:
            directory, rel, start = pending.pop()
            try:
                entries = os.scandir(directory)
            except OSError:
                continue
            with entries:
                for entry in entries:
                    if not entry.name.startswith(start):
                        continue
                    if not entry.is_dir():
                        out.append(rel + entry.name)
                    elif not entry.is_symlink():
                        pending.append((entry.path, rel + entry.name + "/", ""))
        return sorted(out)

    def rename(self, name: str, new_name: str) -> None:
        src, dst = self._path(name), self._path(new_name)
        if not os.path.exists(src):
            raise ObjectMissingError(f"no object {name!r} in {self.url}")
        os.makedirs(os.path.dirname(dst) or ".", exist_ok=True)
        os.replace(src, dst)

    def sweep_tmp(self, prefix: str = "") -> None:
        base = os.path.join(self.root, *prefix.split("/")) if prefix else self.root
        base = base.rstrip("/")
        if not os.path.isdir(base):
            return
        for dirpath, _dirs, files in os.walk(base):
            for fname in files:
                if fname.endswith(".tmp"):
                    try:
                        os.remove(os.path.join(dirpath, fname))
                    except OSError:  # pragma: no cover - concurrent cleanup
                        pass

    def close(self) -> None:  # nothing to release
        pass


# ----------------------------------------------------------------------
# In memory — the engines' own backend, behind no URL
# ----------------------------------------------------------------------
class MemoryBackend:
    """Objects as ``bytes`` in a dict, for as long as the backend lives.

    A :class:`~repro.core.hidestore.HiDeStore` or
    :class:`~repro.pipeline.system.BackupSystem` built without stores keeps
    its containers and recipes here, through the same container and recipe
    stores a repository runs, so simulations and the paper's figures pack,
    store and decode every object exactly as the service does.  ``get`` and
    ``view`` hand out the stored bytes themselves: they are immutable.
    No URL opens one; :attr:`url` only labels it in messages.
    """

    url = "memory:"
    prefers_ranged_reads = False

    def __init__(self) -> None:
        self._objects: Dict[str, bytes] = {}
        self._lock = threading.Lock()

    def _object(self, name: str) -> bytes:
        try:
            return self._objects[name]
        except KeyError:
            raise ObjectMissingError(f"no object {name!r} in {self.url}") from None

    def put(self, name: str, blob: bytes) -> None:
        blob = bytes(blob)
        with self._lock:
            if validate_object_name(name) in self._objects:
                raise StorageError(f"immutable object {name!r} already stored")
            self._objects[name] = blob

    def put_meta(self, name: str, blob: bytes) -> None:
        blob = bytes(blob)
        with self._lock:
            self._objects[validate_object_name(name)] = blob

    def get(self, name: str) -> bytes:
        return self._object(name)

    view = get

    def get_range(self, name: str, offset: int, length: int) -> bytes:
        return self._object(name)[offset : offset + length]

    def exists(self, name: str) -> bool:
        return name in self._objects

    def size(self, name: str) -> int:
        return len(self._object(name))

    def digest(self, name: str) -> str:
        return hashlib.sha256(self._object(name)).hexdigest()

    def delete(self, name: str) -> None:
        with self._lock:
            if self._objects.pop(name, None) is None:
                raise ObjectMissingError(f"no object {name!r} in {self.url}")

    def list(self, prefix: str = "") -> List[str]:
        with self._lock:
            names = list(self._objects)
        return sorted(name for name in names if name.startswith(prefix))

    def rename(self, name: str, new_name: str) -> None:
        validate_object_name(new_name)
        with self._lock:
            self._objects[new_name] = self._object(name)
            if new_name != name:
                del self._objects[name]

    def sweep_tmp(self, prefix: str = "") -> None:  # no staged writes: no litter
        pass

    def close(self) -> None:  # nothing to release
        pass


# ----------------------------------------------------------------------
# sqlite:// — every object a row in one database file
# ----------------------------------------------------------------------
class _SqliteTxn:
    """Commit-on-success / rollback-on-error cursor for one operation."""

    def __init__(self, conn: sqlite3.Connection) -> None:
        self.conn = conn

    def __enter__(self) -> sqlite3.Cursor:
        return self.conn.cursor()

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.conn.commit()
        else:
            self.conn.rollback()



class _Connection(sqlite3.Connection):
    """A connection :class:`SQLiteBackend` can hold weakly."""


class SQLiteBackend:
    """All objects in one SQLite file — metadata + small-object backend.

    One table, ``objects(name PRIMARY KEY, data, mutable)``; immutability
    of ``put`` is enforced by the primary key.  Connections are
    per-thread (WAL journal), so the prefetching restore pool's parallel
    reads do not serialise on one connection, and ranged reads use SQL
    ``substr`` so a slot fetch never loads the whole container blob.
    """

    prefers_ranged_reads = True

    def __init__(self, path: str) -> None:
        self.path = path
        self.url = "sqlite://" + os.path.abspath(path)
        self._local = threading.local()
        #: Every open per-thread connection, so :meth:`close` reaches them
        #: all; one whose thread ended leaves with its ``threading.local``.
        self._conns: "weakref.WeakSet[_Connection]" = weakref.WeakSet()
        self._conns_lock = threading.Lock()
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        with self._cursor() as cur:
            cur.execute(
                "CREATE TABLE IF NOT EXISTS objects ("
                " name TEXT PRIMARY KEY,"
                " data BLOB NOT NULL,"
                " mutable INTEGER NOT NULL DEFAULT 0)"
            )

    # -- connection management ----------------------------------------
    def _conn(self) -> sqlite3.Connection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = sqlite3.connect(
                self.path, timeout=30.0, factory=_Connection, check_same_thread=False
            )
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            with self._conns_lock:  # atomic with close()'s swap and clear
                self._conns.add(conn)
                self._local.conn = conn
        return conn

    def _cursor(self) -> "_SqliteTxn":
        return _SqliteTxn(self._conn())

    # -- protocol ------------------------------------------------------
    def put(self, name: str, blob: bytes) -> None:
        validate_object_name(name)
        try:
            with self._cursor() as cur:
                cur.execute(
                    "INSERT INTO objects (name, data, mutable) VALUES (?, ?, 0)",
                    (name, sqlite3.Binary(blob)),
                )
        except sqlite3.IntegrityError:
            raise StorageError(f"immutable object {name!r} already stored") from None

    def put_meta(self, name: str, blob: bytes) -> None:
        validate_object_name(name)
        with self._cursor() as cur:
            cur.execute(
                "INSERT INTO objects (name, data, mutable) VALUES (?, ?, 1) "
                "ON CONFLICT(name) DO UPDATE SET data = excluded.data, mutable = 1",
                (name, sqlite3.Binary(blob)),
            )

    def _one(self, query: str, params) -> Optional[tuple]:
        cur = self._conn().execute(query, params)
        try:
            return cur.fetchone()
        finally:
            cur.close()

    def get(self, name: str) -> bytes:
        row = self._one("SELECT data FROM objects WHERE name = ?", (name,))
        if row is None:
            raise ObjectMissingError(f"no object {name!r} in {self.url}")
        return bytes(row[0])

    view = get

    def get_range(self, name: str, offset: int, length: int) -> bytes:
        row = self._one(
            "SELECT substr(data, ?, ?) FROM objects WHERE name = ?",
            (offset + 1, length, name),
        )
        if row is None:
            raise ObjectMissingError(f"no object {name!r} in {self.url}")
        return bytes(row[0])

    def exists(self, name: str) -> bool:
        return self._one("SELECT 1 FROM objects WHERE name = ?", (name,)) is not None

    def size(self, name: str) -> int:
        row = self._one("SELECT length(data) FROM objects WHERE name = ?", (name,))
        if row is None:
            raise ObjectMissingError(f"no object {name!r} in {self.url}")
        return int(row[0])

    def digest(self, name: str) -> str:
        return hashlib.sha256(self.get(name)).hexdigest()

    def delete(self, name: str) -> None:
        with self._cursor() as cur:
            cur.execute("DELETE FROM objects WHERE name = ?", (name,))
            if cur.rowcount == 0:
                raise ObjectMissingError(f"no object {name!r} in {self.url}")

    def list(self, prefix: str = "") -> List[str]:
        pattern = prefix.replace("\\", "\\\\").replace("%", r"\%").replace("_", r"\_")
        cur = self._conn().execute(
            r"SELECT name FROM objects WHERE name LIKE ? ESCAPE '\' ORDER BY name",
            (pattern + "%",),
        )
        try:
            return [row[0] for row in cur.fetchall()]
        finally:
            cur.close()

    def rename(self, name: str, new_name: str) -> None:
        validate_object_name(new_name)
        with self._cursor() as cur:
            cur.execute("DELETE FROM objects WHERE name = ?", (new_name,))
            cur.execute("UPDATE objects SET name = ? WHERE name = ?", (new_name, name))
            if cur.rowcount == 0:
                raise ObjectMissingError(f"no object {name!r} in {self.url}")

    def sweep_tmp(self, prefix: str = "") -> None:  # transactional: no litter
        pass

    def close(self) -> None:
        """Close every thread's connection; a later call opens afresh."""
        with self._conns_lock:
            conns, self._local = list(self._conns), threading.local()
            self._conns.clear()
        for conn in conns:
            conn.close()


# ----------------------------------------------------------------------
# URL parsing and the repository-spec layer
# ----------------------------------------------------------------------
#: Registered backend schemes (object_store registers "s3" lazily below).
SCHEMES = ("file", "sqlite", "s3")


def _split_scheme(url: str) -> Optional[tuple]:
    """``("scheme", "rest")`` when ``url`` looks like ``scheme://rest``."""
    marker = url.find("://")
    if marker <= 0:
        return None
    scheme = url[:marker].lower()
    if not scheme.isalnum():
        return None
    return scheme, url[marker + 3 :]


def open_backend(url: str) -> StorageBackend:
    """Open the storage backend a URL (or bare directory path) names."""
    split = _split_scheme(url)
    if split is None:
        return wrap_backend(FileBackend(url))
    scheme, rest = split
    if scheme == "file":
        return wrap_backend(FileBackend(_file_path_from(rest)))
    if scheme == "sqlite":
        return wrap_backend(SQLiteBackend(_file_path_from(rest)))
    if scheme == "s3":
        from .object_store import ObjectStoreBackend

        return wrap_backend(ObjectStoreBackend("s3://" + rest))
    raise StorageError(
        f"unknown storage backend scheme {scheme!r} in {url!r} "
        f"(supported: {', '.join(SCHEMES)})"
    )


def _file_path_from(rest: str) -> str:
    """Path part of a ``file://`` / ``sqlite://`` URL.

    ``file:///abs/path`` keeps the absolute path; ``file://rel/path`` is
    relative (there is no meaningful remote-host notion for these
    schemes, so the "netloc" position is simply the first path segment).
    """
    return unquote(rest)


class RepoLocation:
    """A parsed repository spec: primary backend URL + optional cold tier.

    Specs accepted anywhere the CLI takes a repository today:

    * ``/path/to/repo`` — bare directory, implicit ``file://``;
    * ``file:///path/to/repo``;
    * ``sqlite:///path/to/repo.db`` — the whole repository in one file;
    * ``s3://host:port/bucket/prefix`` — the whole repository in an
      object store;
    * any of the above plus ``?archive=URL`` — container objects (the
      archival ones and the active ones a checkpoint names) go to the
      ``archive`` backend (the cold tier) while recipes, manifests and
      the checkpoint stay on the primary (hot) backend.
    """

    def __init__(self, spec: str) -> None:
        self.spec = spec
        base, query = spec, ""
        marker = spec.find("?")
        if marker >= 0:
            base, query = spec[:marker], spec[marker + 1 :]
        self.archive_url: Optional[str] = None
        if query:
            params = parse_qs(query, keep_blank_values=False)
            archive = params.pop("archive", None)
            if params:
                raise StorageError(
                    f"unknown repository spec parameter(s) "
                    f"{sorted(params)} in {spec!r}"
                )
            if archive:
                self.archive_url = unquote(archive[-1])
        split = _split_scheme(base)
        if split is None:
            self.scheme, self.path = "file", base
        else:
            self.scheme, rest = split
            if self.scheme not in SCHEMES:
                raise StorageError(
                    f"unknown storage backend scheme {self.scheme!r} in {spec!r} "
                    f"(supported: {', '.join(SCHEMES)})"
                )
            self.path = _file_path_from(rest) if self.scheme in ("file", "sqlite") else rest
        if not self.path:
            raise StorageError(f"empty repository path in spec {spec!r}")

    # -- identity ------------------------------------------------------
    @property
    def is_file(self) -> bool:
        """Plain-directory repository with no cold tier: every object is a
        file under :attr:`path`."""
        return self.scheme == "file" and self.archive_url is None

    def canonical_url(self) -> str:
        """A normalised URL for identity comparison (self-sync guards)."""
        if self.scheme == "file":
            base = "file://" + os.path.realpath(self.path)
        elif self.scheme == "sqlite":
            base = "sqlite://" + os.path.realpath(self.path)
        else:
            base = f"{self.scheme}://" + self.path.rstrip("/")
        if self.archive_url:
            base += "?archive=" + quote(self.archive_url, safe="")
        return base

    def primary_url(self) -> str:
        if self.scheme == "file":
            return self.path  # keep bare paths bare: display + legacy joins
        return f"{self.scheme}://{self.path}"

    def open_primary(self) -> StorageBackend:
        if self.scheme == "file":
            return wrap_backend(FileBackend(self.path))
        if self.scheme == "sqlite":
            return wrap_backend(SQLiteBackend(self.path))
        from .object_store import ObjectStoreBackend

        return wrap_backend(ObjectStoreBackend(f"s3://{self.path}"))

    def open_archive(self) -> Optional[StorageBackend]:
        """The cold-tier backend, or ``None`` when there is no cold tier."""
        if self.archive_url is None:
            return None
        return open_backend(self.archive_url)

    # -- multi-tenant composition -------------------------------------
    def child(self, name: str) -> str:
        """The spec of tenant ``name`` under this location (daemon roots).

        ``file`` roots keep today's directory-per-tenant layout;
        ``sqlite`` roots hold one ``<name>.db`` per tenant; object-store
        roots give each tenant a key prefix.  A cold-tier URL propagates
        with the same per-tenant suffix, so mixed-tier daemons stay
        mixed-tier per tenant.
        """
        validate_object_name(name)
        if self.scheme == "file":
            base = os.path.join(self.path, name)
            spec = base if self.archive_url is None else "file://" + base
        elif self.scheme == "sqlite":
            spec = "sqlite://" + os.path.join(self.path, name + ".db")
        else:
            spec = f"{self.scheme}://{self.path.rstrip('/')}/{name}"
        if self.archive_url:
            child_archive = _join_backend_url(self.archive_url, name)
            spec += "?archive=" + child_archive
        return spec

    def tenant_names(self) -> List[str]:
        """Existing tenants under this location (daemon ``repo_names``)."""
        if self.scheme == "file":
            if not os.path.isdir(self.path):
                return []
            return sorted(
                entry
                for entry in os.listdir(self.path)
                if os.path.isdir(os.path.join(self.path, entry))
            )
        if self.scheme == "sqlite":
            if not os.path.isdir(self.path):
                return []
            return sorted(
                entry[: -len(".db")]
                for entry in os.listdir(self.path)
                if entry.endswith(".db")
            )
        backend = self.open_primary()
        try:
            names = {key.split("/", 1)[0] for key in backend.list() if "/" in key}
        finally:
            backend.close()
        return sorted(names)

    def exists(self) -> bool:
        """Whether a repository plausibly exists at this location."""
        if self.scheme == "file":
            return os.path.isdir(self.path)
        if self.scheme == "sqlite":
            return os.path.exists(self.path)
        backend = self.open_primary()
        try:
            return bool(backend.list())
        finally:
            backend.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RepoLocation({self.spec!r})"


def _join_backend_url(url: str, name: str) -> str:
    """Append a per-tenant suffix to a backend URL (cold-tier fan-out)."""
    split = _split_scheme(url)
    if split is None:
        return os.path.join(url, name)
    scheme, rest = split
    if scheme == "sqlite":
        return f"sqlite://{os.path.join(_file_path_from(rest), name + '.db')}"
    if scheme == "file":
        return f"file://{os.path.join(_file_path_from(rest), name)}"
    return f"{scheme}://{rest.rstrip('/')}/{name}"


def parse_repo_spec(spec: str) -> RepoLocation:
    """Parse a repository spec (bare path or backend URL + options)."""
    return RepoLocation(spec)
