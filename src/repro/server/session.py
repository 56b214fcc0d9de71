"""One client connection's frame conversation with the daemon.

Concurrency model: every accepted connection is served by a thread of
its own (:class:`_Session`), over a blocking socket, from ``HELLO`` to
close.  Everything a request needs runs inline on that thread: control
requests, a backup's engine (which reads ``CHUNK_DATA`` frames straight
off the connection whenever the chunker asks for bytes,
:class:`_BackupStream`) and a restore's (whose runs are cut into
``RESTORE_BLOCK`` frames and sent with one gather ``sendmsg`` each,
:class:`_RestoreSender`).

TCP's window is the flow control: a stream holds one frame of server
memory, a client sending faster than the engine reads blocks in ``send``,
and a client reading slower than a restore produces blocks the engine in
``sendmsg``.

Failure semantics: the daemon ends a session it will not wait for by
shutting its socket down (:meth:`_Session.abort`).  The read or send in
flight fails at once; a backup's engine rolls the repository back
(:meth:`repro.repository.LocalRepository._guarded_backup`) — partially
streamed versions never become visible and leave no ``*.tmp`` litter —
and a restore closes its stream before the tenant's read lock goes.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from typing import TYPE_CHECKING, Dict, Tuple

from ..client.protocol import (
    DATA_BLOCK,
    MAGIC,
    MAX_PAYLOAD,
    PROTOCOL_VERSION,
    RESTORE_BLOCK,
    FrameType,
    check_hello,
    decode_json,
    encode_data_header,
    encode_error,
    encode_frame,
    encode_json,
    frame_parts,
)
from ..client.remote import FramedSocket
from ..errors import (
    ProtocolError,
    ReplicationError,
    RepositoryNotFoundError,
    ServerDrainingError,
)
from ..observability import new_trace_id
from ..replication.planner import ObjectRef
from ..replication.state import blob_digest, validate_object
from ..repository import FilePlan, validate_plan, validate_rel_name
from .registry import RepoHandle

if TYPE_CHECKING:
    from .daemon import BackupDaemon

#: Ceiling on one replicated object's size (containers are ~4 MiB; the
#: checkpoint grows with the fingerprint tables but stays far below this).
_MAX_OBJECT = 1 << 30


class _BackupStream:
    """One backup's byte blocks, read off the connection by the engine.

    Iterating reads one ``CHUNK_DATA`` frame per block, only when the
    chunker asks for bytes, until ``BACKUP_END`` (:attr:`ended`).  Any
    other frame is a :class:`ProtocolError`; a connection that closes or
    is shut down mid-stream raises ``ConnectionError`` into the engine,
    which rolls back.
    """

    def __init__(self, conn: FramedSocket, metrics) -> None:
        self.conn = conn
        self.metrics = metrics
        self.ended = False

    def __iter__(self):
        while True:
            ftype, payload = self.conn.recv_frame()
            if ftype == FrameType.BACKUP_END:
                self.ended = True
                return
            if ftype != FrameType.CHUNK_DATA:
                raise ProtocolError(f"unexpected {ftype.name} frame mid-backup")
            self.metrics.inc("server.ingest_bytes", len(payload))
            yield payload


class _RestoreSender:
    """Cuts one restore's runs into frames and sends each as it fills.

    Every ``CHUNK_DATA`` frame carries exactly ``RESTORE_BLOCK`` payload
    bytes cut from the runs (the last frame fewer), header and runs in one
    gather ``sendmsg``.  A restore holds one frame's runs; a full socket
    stalls the engine.
    """

    def __init__(self, conn: FramedSocket) -> None:
        self.conn = conn
        self.frames = self.sent = 0
        self.send_seconds = self.wait_seconds = 0.0  # in sendmsg; waiting on the engine

    def send(self, data) -> None:
        frame, size = [], 0
        mark = time.perf_counter()
        for block in data:
            while size + len(block) >= RESTORE_BLOCK:
                cut = RESTORE_BLOCK - size
                block = memoryview(block)
                frame.append(block[:cut])
                mark = self._send_frame(frame, RESTORE_BLOCK, mark)
                frame, size, block = [], 0, block[cut:]
            if block:
                frame.append(block)
                size += len(block)
        if size:
            self._send_frame(frame, size, mark)

    def _send_frame(self, frame: list, size: int, mark: float) -> float:
        """Write one frame whole; returns the time it left."""
        ready = time.perf_counter()
        self.wait_seconds += ready - mark
        self.conn.send_parts([encode_data_header(size), *frame])
        done = time.perf_counter()
        self.send_seconds += done - ready
        self.frames += 1
        self.sent += size
        return done


class _EndSession(Exception):
    """Internal: tear down this client connection (after an ERROR frame)."""


def sanitize_trace(value: object) -> str:
    """Vet a client-supplied trace ID for the logs (printable, bounded)."""
    if not isinstance(value, str):
        return ""
    text = value[:64]
    if any(not (32 <= ord(ch) < 127) for ch in text):
        return ""
    return text


class _Session(threading.Thread):
    """One client connection's frame conversation, on a thread of its own.

    ``refuse``: the daemon was draining when it accepted the connection;
    its ``HELLO`` gets ``ServerDrainingError`` and the connection closes.
    """

    def __init__(self, server: "BackupDaemon", sock: socket.socket, refuse: bool) -> None:
        super().__init__(name="daemon-session", daemon=True)
        self.server = server
        self.sock = sock
        self.conn = FramedSocket(sock)
        self.refuse = refuse
        # One trace ID per session; per-request IDs are "<session>.<seq>"
        # (the client derives the same IDs from the HELLO_OK handoff).
        self.trace = new_trace_id()
        self.seq = 0
        self._closing = threading.Lock()  # the socket's close and ``_parked`` against abort()
        #: Waiting for the client's next frame, not serving a request.
        self._parked = True

    def abort(self, parked_only: bool = False) -> None:
        """Shut the connection down from another thread: the read or send
        in flight, or the next one, fails at once.  ``parked_only`` spares
        a session that is serving a request."""
        with self._closing:
            if parked_only and not self._parked:
                return
            try:
                self.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # closed already, or the peer tore it down

    def _park(self, parked: bool) -> None:
        """Enter (``False``) or leave a request.  A stopping daemon lets no
        session start a request or park again: the drain is for the
        requests in flight, not for the clients' next ones."""
        with self._closing:
            stopping = self.server.stopping
            if not stopping:
                self._parked = parked
        if stopping:
            if not parked:
                self._send_error(ServerDrainingError("server is stopping; connect elsewhere"))
            raise _EndSession()

    # ------------------------------------------------------------------
    def run(self) -> None:
        try:
            if self.refuse:
                self._refuse()
            else:
                self._converse()
        finally:
            with self._closing:
                self.conn.close()
            self.server.session_ended(self)

    def _converse(self) -> None:
        try:
            peer = str(self.sock.getpeername())
        except OSError:
            peer = None
        self.server.events.log("session_open", trace=self.trace, peer=peer)
        try:
            self._handshake()
            while True:
                ftype, payload = self.conn.recv_frame()
                self._park(False)
                self._dispatch(ftype, payload)
                self._park(True)
        except (_EndSession, OSError):
            pass  # told to hang up, or the client did (between requests too)
        except ProtocolError as exc:
            self._send_error(exc)
        finally:
            self.server.events.log("session_close", trace=self.trace, requests=self.seq)

    def _refuse(self) -> None:
        try:
            self.conn.recv_frame()
            self._send_error(ServerDrainingError("server is draining; connect elsewhere"))
        except (OSError, ProtocolError):
            pass

    def _handshake(self) -> None:
        ftype, payload = self.conn.recv_frame()
        if ftype != FrameType.HELLO:
            raise ProtocolError(f"expected HELLO, got {ftype.name}")
        check_hello(payload)
        hello = {"magic": MAGIC, "version": PROTOCOL_VERSION, "trace": self.trace}
        self.conn.send(encode_json(FrameType.HELLO_OK, hello))

    def _send_error(self, exc: BaseException) -> None:
        try:
            self.conn.send(encode_error(exc))
        except OSError:
            pass

    def _reply(self, ftype: FrameType, doc: Dict, kind: str) -> None:
        """Count the served request and send its one-frame answer."""
        self.server.note_session(kind)
        self.conn.send(encode_json(ftype, doc))

    # ------------------------------------------------------------------
    def _dispatch(self, ftype: FrameType, payload: bytes) -> None:
        entry = self._HANDLERS.get(ftype)
        if entry is None:
            raise ProtocolError(f"unexpected {ftype.name} frame between requests")
        kind, handler = entry
        obj = decode_json(payload)
        self.seq += 1
        # A clustered daemon counts the data-plane traffic the router sends
        # it (CLUSTER_MAP fetches are control plane, not routed requests).
        if self.server.cluster is not None and ftype != FrameType.CLUSTER_MAP:
            self.server.metrics.inc("cluster.requests_routed")
        # Prefer the client's request trace (carried in the payload) so one
        # ID joins both sides' logs; fall back to our own session-derived ID.
        trace = sanitize_trace(obj.get("trace")) or f"{self.trace}.{self.seq}"
        repo = obj.get("repo") if isinstance(obj.get("repo"), str) else None
        events, metrics = self.server.events, self.server.metrics
        metrics.inc("server.requests_total")
        events.log(f"{kind}_begin", trace=trace, repo=repo)
        started = time.perf_counter()
        try:
            handler(self, obj)
        except Exception as exc:  # any failed request is answered; the session lives on
            elapsed = time.perf_counter() - started
            cause = exc.__cause__ if isinstance(exc, _EndSession) and exc.__cause__ else exc
            metrics.inc("server.errors_total")
            metrics.inc(f"server.{kind}_errors_total")
            handle = self.server.registry.opened(repo) if repo is not None else None
            if handle is not None:
                handle.note_error()
            events.log(
                f"{kind}_error",
                trace=trace,
                repo=repo,
                duration_ms=round(elapsed * 1000, 3),
                error=type(cause).__name__,
                message=str(cause),
            )
            if isinstance(exc, _EndSession):
                raise
            if isinstance(exc, ConnectionError):
                raise _EndSession() from None
            self._send_error(exc)
            if isinstance(exc, ProtocolError):
                # Framing is no longer trustworthy: report and hang up.
                raise _EndSession() from None
        else:
            elapsed = time.perf_counter() - started
            metrics.observe(f"server.{kind}_seconds", elapsed)
            events.log(
                f"{kind}_end", trace=trace, repo=repo,
                duration_ms=round(elapsed * 1000, 3),
            )

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def _handle_backup(self, obj: dict) -> None:
        if self.server.draining:
            raise ServerDrainingError("server is draining; retry the backup elsewhere")
        # Write fencing + the promotion verify gate happen before the
        # repository is even created: a fenced write must not leave an
        # empty tenant directory behind.
        self.server.ensure_write_primary(obj.get("repo"))
        # Vet the plan before any tenant, lock or stream: a traversal
        # attempt ('../x', absolute, control chars), a negative size or a
        # repeated name dies here with a typed ERROR.
        plan = validate_plan((str(rel), size) for rel, size in obj.get("files", []))
        handle = self.server.registry.get(obj.get("repo"), create=True)
        tag = str(obj.get("tag", "") or "")
        with handle.writing():
            self._run_backup(handle, plan, tag)

    def _run_backup(self, handle: RepoHandle, plan: FilePlan, tag: str) -> None:
        self.conn.send(encode_frame(FrameType.BACKUP_READY))
        stream = _BackupStream(self.conn, self.server.metrics)
        try:
            report = handle.repository.backup_blocks(stream, plan, tag)
            if not stream.ended:
                raise ProtocolError("engine finished before BACKUP_END")
        except Exception as first:  # mid-stream: whatever failed, the stream's place is lost
            handle.note_backup_failed()
            if isinstance(first, ConnectionError):
                raise
            # Report the failure, then hang up.  A client blocked sending
            # sees its send fail and reads this ERROR.
            self._send_error(first)
            raise _EndSession() from first
        handle.note_backup(report)
        self._reply(FrameType.BACKUP_DONE, report, "backup")

    # ------------------------------------------------------------------
    # Restore
    # ------------------------------------------------------------------
    def _restore_options(self, obj: dict) -> dict:
        """Vet the client's restore knobs against the daemon's limits.

        Unknown keys are ignored (old clients), a request that names no
        ``workers`` is served serially (as ``LocalRepository.restore``
        does), requested parallelism is clamped to the operator's
        ``restore_workers`` cap, and the partial ``file`` name gets the
        same traversal vetting as backup plans.
        """
        requested = obj.get("workers")
        workers = (
            1 if requested is None
            else max(1, min(int(requested), self.server.restore_workers))
        )
        rel = obj.get("file")
        if rel is not None:
            rel = validate_rel_name(str(rel))
        return {
            "workers": workers,
            "verify": bool(obj.get("verify", False)),
            "file": rel,
        }

    def _handle_restore(self, obj: dict) -> None:
        handle = self.server.registry.get(obj.get("repo"))
        version = int(obj.get("version", 0))
        options = self._restore_options(obj)
        # In a cluster, the router sends restores to the tenant's primary;
        # a restore served by a replica holder *is* a failover (the primary
        # is down or draining) — count it where operators can see it.
        if self.server.is_primary(handle.name) is False:
            self.server.metrics.inc("cluster.failovers")
            self.server.events.log(
                "cluster_failover_serve",
                repo=handle.name,
                node=self.server.node_name,
                primary=self.server.cluster.primary(handle.name).name,
                version=version,
            )
        with handle.reading():
            # Open-time failures (unknown version or file) raise here,
            # before any data, and leave as a typed ERROR frame.
            plan, data = handle.repository.restore(version, **options)
            try:
                self._send_restore(handle, version, plan, data)
            finally:
                # The read lock outlives the engine: closing the stream
                # waits out the container reads in flight.
                data.close()

    def _send_restore(self, handle: RepoHandle, version: int, plan: FilePlan, data) -> None:
        """Write ``RESTORE_META``, every data frame, then ``RESTORE_END``.

        An engine failure mid-stream leaves after whole frames only, as
        the typed ERROR :meth:`_dispatch` sends.
        """
        files = [[rel, size] for rel, size in plan]
        self.conn.send(encode_json(FrameType.RESTORE_META, {"version": version, "files": files}))
        sender = _RestoreSender(self.conn)
        sender.send(data)
        metrics = self.server.metrics
        metrics.observe("restore.send_seconds", sender.send_seconds)
        metrics.observe("restore.pump_wait_seconds", sender.wait_seconds)
        metrics.inc("restore.frames", sender.frames)
        metrics.inc("server.restore_bytes", sender.sent)
        handle.note_restore(sender.sent)
        end = {"chunks": data.entries, "bytes": sender.sent}
        self._reply(FrameType.RESTORE_END, end, "restore")

    # ------------------------------------------------------------------
    # Control requests
    # ------------------------------------------------------------------
    def _handle_stats(self, obj: dict) -> None:
        name = obj.get("repo")
        if name is None:
            # Whole-server stats: sample each repo under its read lock, as
            # the single-repo path does, so an active backup or rollback on
            # one tenant is never observed mid-mutation.
            repos: Dict[str, Dict] = {}
            for repo_name in self.server.registry.repo_names():
                handle = self.server.registry.get(repo_name, create=True)
                with handle.lock.read_locked():
                    try:
                        repos[repo_name] = handle.stats()
                    except RepositoryNotFoundError:
                        continue  # a handle whose tenant holds nothing yet
            doc: Dict = {"repos": repos, "server": self.server.server_stats()}
        else:
            handle = self.server.registry.get(name)
            with handle.lock.read_locked():
                doc = handle.stats()
        doc["metrics"] = self.server.metrics.snapshot()
        self._reply(FrameType.STATS_OK, doc, "stats")

    def _handle_versions(self, obj: dict) -> None:
        handle = self.server.registry.get(obj.get("repo"))
        with handle.lock.read_locked():
            rows = handle.repository.versions()
        self._reply(FrameType.VERSIONS_OK, {"versions": rows}, "versions")

    # ------------------------------------------------------------------
    # Replication: this daemon as a mirror target
    # ------------------------------------------------------------------
    # Locking discipline: STATE, PUT and FETCH run under the tenant's
    # *read* lock — puts land invisible additions (containers/manifests
    # are unreferenced until a recipe names them, staged files are not
    # live), so they coexist with restores while still excluding writers
    # (backup, delete, commit).  COMMIT takes the *write* lock: it flips
    # the tenant's visible version set, and must also drop the cached
    # engine so the next operation reloads the new on-disk state.

    @staticmethod
    def _replication_object(obj: dict) -> Tuple[str, str]:
        kind = str(obj.get("kind", "") or "")
        name = str(obj.get("name", "") or "")
        validate_object(kind, name)
        return kind, name

    @staticmethod
    def _replication_refs(raw: object, what: str) -> list:
        if not isinstance(raw, list):
            raise ProtocolError(f"replication {what} must be a list of [kind, name]")
        refs = []
        for pair in raw:
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ProtocolError(f"malformed replication {what} entry: {pair!r}")
            kind, name = str(pair[0]), str(pair[1])
            validate_object(kind, name)
            refs.append(ObjectRef(kind, name))
        return refs

    def _handle_replicate_state(self, obj: dict) -> None:
        handle = self.server.registry.get(obj.get("repo"), create=True)
        with handle.lock.read_locked():
            state = handle.mirror.state()
        self._reply(
            FrameType.REPLICATE_STATE_OK,
            {"state": state, "identity": handle.mirror.identity()},
            "replicate_state",
        )

    def _handle_replicate_put(self, obj: dict) -> None:
        if self.server.draining:
            raise ServerDrainingError("server is draining; retry the sync elsewhere")
        handle = self.server.registry.get(obj.get("repo"), create=True)
        kind, name = self._replication_object(obj)
        size = obj.get("size")
        if not isinstance(size, int) or size < 0 or size > _MAX_OBJECT:
            raise ProtocolError(f"REPLICATE_PUT announces invalid size {size!r}")
        digest = str(obj.get("digest", "") or "")
        staged = bool(obj.get("staged", False))
        parts = []
        received = 0
        while received < size:
            ftype, payload = self.conn.recv_frame()
            if ftype != FrameType.CHUNK_DATA:
                raise ProtocolError(f"unexpected {ftype.name} frame mid-put")
            parts.append(payload)
            received += len(payload)
        if received != size:
            raise ProtocolError(
                f"object body overran its announced size ({received} > {size})"
            )
        blob = b"".join(parts)
        if digest and blob_digest(blob) != digest:
            raise ReplicationError(
                f"shipped {kind} {name!r} failed digest validation in transit"
            )
        with handle.reading():
            handle.mirror.put(kind, name, blob, staged)
        self.server.metrics.inc("server.replicate_bytes", len(blob))
        self._reply(FrameType.REPLICATE_PUT_OK, {"bytes": len(blob)}, "replicate_put")

    def _handle_replicate_commit(self, obj: dict) -> None:
        handle = self.server.registry.get(obj.get("repo"), create=True)
        renames = self._replication_refs(obj.get("renames", []), "renames")
        deletes = self._replication_refs(obj.get("deletes", []), "deletes")
        with handle.writing():
            applied = handle.mirror.commit(renames, deletes)
            handle.repository.invalidate()
        # A replica sync commits on ring *successors*; a commit landing on
        # the tenant's *primary* is a rebalance move arriving at its new
        # home (the mover ships old-placement → new-primary).
        if self.server.is_primary(handle.name):
            self.server.metrics.inc("cluster.tenants_moved")
            self.server.events.log(
                "cluster_tenant_moved", repo=handle.name, node=self.server.node_name
            )
        self._reply(
            FrameType.REPLICATE_COMMIT_OK, {"applied": applied}, "replicate_commit"
        )

    def _handle_replicate_fetch(self, obj: dict) -> None:
        handle = self.server.registry.get(obj.get("repo"))
        kind, name = self._replication_object(obj)
        with handle.lock.read_locked():
            # Whole-object reads off a plain local directory go
            # kernel-to-kernel: one CHUNK_DATA header, then os.sendfile
            # ships the file without the payload ever entering user space.
            # The read lock is held across the send so compaction cannot
            # rewrite the container under the in-flight copy.
            path = handle.repository.storage.local_path(kind, name)
            if path is not None and os.path.isfile(path):
                size = os.path.getsize(path)
                if 0 < size <= MAX_PAYLOAD:
                    self._reply(FrameType.REPLICATE_OBJECT, {"size": size}, "replicate_fetch")
                    self.conn.send(encode_data_header(size))
                    with open(path, "rb") as payload_file:
                        self.sock.sendfile(payload_file, 0, size)
                    return
            blob = handle.mirror.fetch(kind, name)
        self._reply(FrameType.REPLICATE_OBJECT, {"size": len(blob)}, "replicate_fetch")
        view = memoryview(blob)
        for offset in range(0, len(blob), DATA_BLOCK):
            self.conn.send_parts(
                frame_parts(FrameType.CHUNK_DATA, view[offset : offset + DATA_BLOCK])
            )

    def _handle_verify(self, obj: dict) -> None:
        handle = self.server.registry.get(obj.get("repo"))
        deep = bool(obj.get("deep", False))
        with handle.lock.read_locked():
            doc = handle.repository.verify(deep)
        self._reply(FrameType.VERIFY_OK, doc, "verify")

    # ------------------------------------------------------------------
    # Cluster control plane
    # ------------------------------------------------------------------
    def _handle_cluster_map(self, obj: dict) -> None:
        # Gossip on ping: a clustered peer may attach its own map.  This is
        # how a promotion minted by one daemon reaches the rest, and how a
        # rejoining stale daemon learns it was demoted.
        if obj.get("map") is not None:
            self.server.adopt_cluster_map(obj["map"], source="peer")
        cluster = self.server.cluster
        self._reply(
            FrameType.CLUSTER_MAP_OK,
            {
                "map": cluster.as_doc() if cluster is not None else None,
                "node": self.server.node_name,
                "draining": self.server.draining,
            },
            "cluster_map",
        )

    def _handle_cluster_sync(self, obj: dict) -> None:
        if self.server.draining:
            raise ServerDrainingError("server is draining; sync from the next epoch")
        repo = obj.get("repo")
        doc = self.server.sync_owned(str(repo) if repo else None)
        self._reply(FrameType.CLUSTER_SYNC_OK, doc, "cluster_sync")

    def _handle_tenant_drop(self, obj: dict) -> None:
        if self.server.draining:
            raise ServerDrainingError("server is draining; refusing tenant drop")
        handle = self.server.registry.get(obj.get("repo"))
        with handle.lock.write_locked():
            removed = self.server.registry.drop(handle.name)
        self.server.events.log("tenant_drop", repo=handle.name, removed=removed)
        self._reply(
            FrameType.TENANT_DROP_OK, {"repo": handle.name, "removed": removed},
            "tenant_drop",
        )

    def _handle_delete_oldest(self, obj: dict) -> None:
        self.server.ensure_write_primary(obj.get("repo"))
        handle = self.server.registry.get(obj.get("repo"))
        with handle.writing():
            result = handle.repository.delete_oldest()
        handle.note_delete()
        self._reply(FrameType.DELETE_OK, result, "delete")

    #: Request frame -> (event/metric kind, handler).
    _HANDLERS = {
        FrameType.BACKUP_BEGIN: ("backup", _handle_backup),
        FrameType.RESTORE_BEGIN: ("restore", _handle_restore),
        FrameType.STATS: ("stats", _handle_stats),
        FrameType.VERSIONS: ("versions", _handle_versions),
        FrameType.DELETE_OLDEST: ("delete", _handle_delete_oldest),
        FrameType.REPLICATE_STATE: ("replicate_state", _handle_replicate_state),
        FrameType.REPLICATE_PUT: ("replicate_put", _handle_replicate_put),
        FrameType.REPLICATE_COMMIT: ("replicate_commit", _handle_replicate_commit),
        FrameType.REPLICATE_FETCH: ("replicate_fetch", _handle_replicate_fetch),
        FrameType.VERIFY: ("verify", _handle_verify),
        FrameType.CLUSTER_MAP: ("cluster_map", _handle_cluster_map),
        FrameType.CLUSTER_SYNC: ("cluster_sync", _handle_cluster_sync),
        FrameType.TENANT_DROP: ("tenant_drop", _handle_tenant_drop),
    }
