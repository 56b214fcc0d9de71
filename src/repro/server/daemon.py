"""The asyncio backup daemon: TCP frame service over hosted repositories.

Concurrency model: the event loop owns every socket; blocking engine work
(chunking, dedup, container I/O) runs on worker threads via
``asyncio.to_thread``.  Ingest streams bridge the two worlds through a
credit-bounded queue — the loop-side session enqueues ``CHUNK_DATA``
payloads as frames arrive, the engine-side thread dequeues them as the
chunker demands bytes, and consumption notifications flow back to the loop
to grant the client more window.  At most *window* data frames are ever
buffered per backup, however fast the client pushes.  A restore runs the
other way through :class:`_RestorePump`: one engine thread per restore
builds whole frames and the loop only writes them, at most four ahead of
the socket.

Failure semantics: a backup whose session dies (disconnect, cancellation
during shutdown) aborts the engine thread, which rolls the repository back
(:meth:`repro.repository.LocalRepository._guarded_backup`) — partially
streamed versions never become visible and leave no ``*.tmp`` litter.
Shutdown is a graceful drain: the listener closes, new backups are
refused (``ServerDrainingError``), in-flight sessions get
``drain_timeout`` seconds to finish, stragglers are cancelled into the
rollback path.
"""

from __future__ import annotations

import asyncio
import os
import queue
import threading
import time
from typing import Dict, Optional, Set, Tuple

from ..client.protocol import (
    DATA_BLOCK,
    DEFAULT_WINDOW,
    HEADER_SIZE,
    MAGIC,
    MAX_PAYLOAD,
    PROTOCOL_VERSION,
    RESTORE_BLOCK,
    FrameType,
    check_hello,
    decode_header,
    decode_json,
    encode_data_header,
    encode_error,
    encode_json,
    frame_parts,
)
from ..cluster.map import ClusterMap, newer_map
from ..errors import (
    ClusterError,
    NotPrimaryError,
    ProtocolError,
    ReplicationError,
    ReproError,
    RemoteError,
    ServerDrainingError,
)
from ..engine.shared_pool import SharedChunkPool, sweep_orphaned_segments
from ..observability import EventLogger, MetricsRegistry, get_registry, new_trace_id
from ..replication.planner import ObjectRef
from ..replication.state import blob_digest, capture_state, source_identity, validate_object
from ..replication.targets import commit_objects, object_path, read_object, write_object
from ..repository import FilePlan, validate_rel_name
from ..storage.repo import is_repo_url
from .registry import RepoHandle, RepositoryRegistry

#: Ceiling on one replicated object's size (containers are ~4 MiB; the
#: checkpoint grows with the fingerprint tables but stays far below this).
_MAX_OBJECT = 1 << 30

#: Sentinel closing a stream handed between the loop and an engine thread:
#: a backup's block queue (client sent BACKUP_END), a restore pump's frames.
_EOF = object()

#: Restore frames handed to the event loop but not yet written and drained.
_RESTORE_WINDOW = 4


async def read_frame(reader: asyncio.StreamReader) -> Tuple[FrameType, bytes]:
    """Read exactly one validated frame from the stream."""
    header = await reader.readexactly(HEADER_SIZE)
    length, ftype = decode_header(header)
    payload = await reader.readexactly(length) if length else b""
    return ftype, payload


class _RestorePump(threading.Thread):
    """One restore's engine thread: plan, read, assemble, frame.

    Runs the repository's whole restore iterator off the event loop and
    hands the loop first the file plan, then ready-to-write ``CHUNK_DATA``
    frames of at least ``RESTORE_BLOCK`` payload bytes.  ``_offer`` blocks
    while ``_RESTORE_WINDOW`` items are handed over but not yet written, so
    a restore holds at most that many frames plus the one being built, and
    a slow socket stalls the engine instead of filling memory.  The thread's
    last item is always terminal — ``_EOF`` or the exception that ended the
    stream — and bypasses the window: whoever waits for it knows the thread
    has left the repository.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop, open_restore) -> None:
        super().__init__(name="restore-pump", daemon=True)
        self._loop = loop
        self._open = open_restore
        self._window = threading.Semaphore(_RESTORE_WINDOW)
        self._stopped = False
        self._holding = False
        self.queue: asyncio.Queue = asyncio.Queue()
        self.finished = False
        self.chunks = 0

    def _offer(self, item: object) -> None:
        self._window.acquire()
        if self._stopped:
            raise RemoteError("restore session aborted")
        self._loop.call_soon_threadsafe(self.queue.put_nowait, item)

    def run(self) -> None:
        last: object = _EOF
        try:
            plan, data = self._open()
            self._offer(plan)
            parts, size = [], 0
            for blob in data:
                self.chunks += 1
                parts.append(blob)
                size += len(blob)
                if size >= RESTORE_BLOCK:
                    # The join is the one copy a frame costs; the header
                    # rides in it so the loop makes a single write.
                    self._offer(b"".join([encode_data_header(size), *parts]))
                    parts, size = [], 0
            if size:
                self._offer(b"".join([encode_data_header(size), *parts]))
        except BaseException as exc:  # forwarded: take() re-raises it on the loop
            last = exc
        try:
            self._loop.call_soon_threadsafe(self.queue.put_nowait, last)
        except RuntimeError:
            pass  # loop closed: the daemon was killed while we were in the engine

    async def _next(self) -> object:
        item = await self.queue.get()
        self.finished = item is _EOF or isinstance(item, BaseException)
        return item

    async def take(self) -> object:
        """Loop-side: the next item, ``None`` at the end of the stream.

        Asking for the next item is what frees the previous one's window
        slot — the caller has written and drained it by then.  Raises
        whatever ended the engine's stream early.
        """
        if self._holding:
            self._window.release()
        item = await self._next()
        self._holding = True
        if not self.finished:
            return item
        if item is _EOF:
            return None
        raise item

    def stop(self) -> None:
        """Loop-side: make the thread's next (or current) ``_offer`` fail."""
        self._stopped = True
        self._window.release()

    async def close(self) -> None:
        """Loop-side: stop the thread and wait until it is out of the engine."""
        self.stop()
        while not self.finished:
            await self._next()


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


class _Session:
    """One client connection's frame conversation."""

    def __init__(self, daemon: "BackupDaemon", reader, writer) -> None:
        self.daemon = daemon
        self.reader = reader
        self.writer = writer
        # One trace ID per session; per-request IDs are "<session>.<seq>"
        # (the client derives the same IDs from the HELLO_OK handoff).
        self.trace = new_trace_id()
        self.seq = 0

    # ------------------------------------------------------------------
    async def run(self) -> None:
        peer = None
        try:
            peer = self.writer.get_extra_info("peername")
        except Exception:  # pragma: no cover - transport quirk
            pass
        self.daemon.events.log(
            "session_open", trace=self.trace, peer=str(peer) if peer else None
        )
        try:
            await self._handshake()
            while True:
                try:
                    ftype, payload = await read_frame(self.reader)
                except (asyncio.IncompleteReadError, ConnectionError):
                    return  # client hung up between requests
                await self._dispatch(ftype, payload)
        except _EndSession:
            pass
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        except ProtocolError as exc:
            await self._send_error(exc)
        finally:
            self.daemon.events.log("session_close", trace=self.trace, requests=self.seq)
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handshake(self) -> None:
        ftype, payload = await read_frame(self.reader)
        if ftype != FrameType.HELLO:
            raise ProtocolError(f"expected HELLO, got {ftype.name}")
        check_hello(payload)
        self.writer.write(
            encode_json(
                FrameType.HELLO_OK,
                {
                    "magic": MAGIC,
                    "version": PROTOCOL_VERSION,
                    "window": self.daemon.window,
                    "trace": self.trace,
                },
            )
        )
        await self.writer.drain()

    async def _send_error(self, exc: BaseException) -> None:
        try:
            self.writer.write(encode_error(exc))
            await self.writer.drain()
        except (ConnectionError, OSError):
            pass

    # ------------------------------------------------------------------
    async def _dispatch(self, ftype: FrameType, payload: bytes) -> None:
        handlers = {
            FrameType.BACKUP_BEGIN: ("backup", self._handle_backup),
            FrameType.RESTORE_BEGIN: ("restore", self._handle_restore),
            FrameType.STATS: ("stats", self._handle_stats),
            FrameType.VERSIONS: ("versions", self._handle_versions),
            FrameType.DELETE_OLDEST: ("delete", self._handle_delete_oldest),
            FrameType.REPLICATE_STATE: ("replicate_state", self._handle_replicate_state),
            FrameType.REPLICATE_PUT: ("replicate_put", self._handle_replicate_put),
            FrameType.REPLICATE_COMMIT: ("replicate_commit", self._handle_replicate_commit),
            FrameType.REPLICATE_FETCH: ("replicate_fetch", self._handle_replicate_fetch),
            FrameType.VERIFY: ("verify", self._handle_verify),
            FrameType.CLUSTER_MAP: ("cluster_map", self._handle_cluster_map),
            FrameType.CLUSTER_SYNC: ("cluster_sync", self._handle_cluster_sync),
            FrameType.TENANT_DROP: ("tenant_drop", self._handle_tenant_drop),
        }
        entry = handlers.get(ftype)
        if entry is None:
            raise ProtocolError(f"unexpected {ftype.name} frame between requests")
        kind, handler = entry
        obj = decode_json(payload)
        self.seq += 1
        # A clustered daemon counts the data-plane traffic the router sends
        # it (CLUSTER_MAP fetches are control plane, not routed requests).
        if self.daemon.cluster is not None and ftype != FrameType.CLUSTER_MAP:
            self.daemon.metrics.inc("cluster.requests_routed")
        # Prefer the client's request trace (carried in the payload) so one
        # ID joins both sides' logs; fall back to our own session-derived ID.
        trace = sanitize_trace(obj.get("trace")) or f"{self.trace}.{self.seq}"
        repo = obj.get("repo") if isinstance(obj.get("repo"), str) else None
        events, metrics = self.daemon.events, self.daemon.metrics
        metrics.inc("server.requests_total")
        events.log(f"{kind}_begin", trace=trace, repo=repo)
        started = time.perf_counter()
        try:
            await handler(obj)
        except asyncio.CancelledError:
            raise
        except BaseException as exc:
            elapsed = time.perf_counter() - started
            cause = exc.__cause__ if isinstance(exc, _EndSession) and exc.__cause__ else exc
            metrics.inc("server.errors_total")
            metrics.inc(f"server.{kind}_errors_total")
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
            if isinstance(exc, (asyncio.IncompleteReadError, ConnectionError)):
                raise _EndSession() from None
            if isinstance(exc, ProtocolError):
                # Framing is no longer trustworthy: report and hang up.
                await self._send_error(exc)
                raise _EndSession() from None
            await self._send_error(exc)
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
    async def _handle_backup(self, obj: dict) -> None:
        if self.daemon.draining:
            raise ServerDrainingError("server is draining; retry the backup elsewhere")
        # Write fencing + the promotion verify gate happen before the
        # repository is even created: a fenced write must not leave an
        # empty tenant directory behind.
        await self.daemon.ensure_write_primary(obj.get("repo"))
        handle = self.daemon.registry.get(obj.get("repo"), create=True)
        # Vet names before any lock or stream: a traversal attempt
        # ('../x', absolute, control chars) dies here with a typed ERROR.
        plan: FilePlan = [
            (validate_rel_name(str(rel)), int(size))
            for rel, size in obj.get("files", [])
        ]
        tag = str(obj.get("tag", "") or "")
        async with handle.lock.write_locked():
            handle.active_ops += 1
            try:
                await self._run_backup(handle, plan, tag)
            finally:
                handle.active_ops -= 1

    async def _run_backup(self, handle: RepoHandle, plan: FilePlan, tag: str) -> None:
        loop = asyncio.get_running_loop()
        window = self.daemon.window
        blocks: "queue.Queue" = queue.Queue()
        consumed = {"since_grant": 0, "total": 0, "ended": False}

        def note_consumed() -> None:
            # Loop-side: grant fresh window as the engine drains the queue.
            consumed["total"] += 1
            # Once BACKUP_END arrives the client sends no more data, so any
            # further CREDIT would land *after* BACKUP_DONE and poison the
            # next pooled request on this connection.  Stop granting.
            if consumed["ended"]:
                return
            consumed["since_grant"] += 1
            if consumed["since_grant"] >= max(1, window // 2) and not self.writer.is_closing():
                grant, consumed["since_grant"] = consumed["since_grant"], 0
                self.writer.write(encode_json(FrameType.CREDIT, {"frames": grant}))

        def block_iter():
            # Thread-side: feed the chunker from the frame queue.
            while True:
                item = blocks.get()
                if item is _EOF:
                    return
                if isinstance(item, BaseException):
                    raise item
                loop.call_soon_threadsafe(note_consumed)
                yield item

        # Initial window, then start the engine before reading any data.
        self.writer.write(encode_json(FrameType.CREDIT, {"frames": window}))
        await self.writer.drain()
        engine_done = threading.Event()

        def _engine():
            # The event — not the asyncio task state — is the ground truth
            # for "the engine thread has stopped touching the repository":
            # cancelling a to_thread task only marks the future, the thread
            # runs on regardless.
            try:
                return handle.repository.backup_blocks(block_iter(), plan, tag)
            finally:
                engine_done.set()

        backup_task = asyncio.ensure_future(asyncio.to_thread(_engine))

        received = 0
        read_task: Optional[asyncio.Task] = None
        try:
            while True:
                if read_task is None:
                    read_task = asyncio.ensure_future(read_frame(self.reader))
                # Wait on the socket AND the engine: if the engine fails
                # while the client is stalled waiting for credit, the error
                # must reach it now, not after another frame arrives.
                await asyncio.wait(
                    {read_task, backup_task}, return_when=asyncio.FIRST_COMPLETED
                )
                if not read_task.done():
                    # Engine finished first.  Success is impossible before
                    # BACKUP_END (the stream has no EOF yet), so surface
                    # the failure immediately.
                    exc = backup_task.exception()
                    raise exc if exc is not None else ProtocolError(
                        "engine finished before BACKUP_END"
                    )
                ftype, payload = read_task.result()
                read_task = None
                if ftype == FrameType.CHUNK_DATA:
                    received += 1
                    if received - consumed["total"] > window * 2:
                        raise ProtocolError("client overran its credit window")
                    self.daemon.metrics.inc("server.ingest_bytes", len(payload))
                    blocks.put(payload)
                elif ftype == FrameType.BACKUP_END:
                    consumed["ended"] = True
                    blocks.put(_EOF)
                    break
                else:
                    raise ProtocolError(f"unexpected {ftype.name} frame mid-backup")
            report = await backup_task
        except BaseException as first:
            # Abort the engine thread (triggers repository rollback), wait
            # for the rollback to complete, then surface the root cause.
            blocks.put(
                first
                if isinstance(first, ReproError)
                else RemoteError("backup session aborted")
            )
            # The engine runs on a worker thread and cannot be interrupted;
            # the queued exception makes it unwind into the repository
            # rollback.  When shutdown() cancels this session, the await on
            # backup_task auto-cancels that future too — while the thread
            # runs on — so backup_task.done() proves nothing.  Wait on the
            # thread's own completion event, swallowing repeated
            # cancellation, so shutdown() only returns once the repository
            # is clean: committed or rolled back, never mid-write.
            while not engine_done.is_set():
                try:
                    await asyncio.shield(asyncio.to_thread(engine_done.wait))
                except asyncio.CancelledError:
                    continue
                except BaseException:
                    break
            handle.note_backup_failed()
            if isinstance(first, ReproError) and not isinstance(first, ProtocolError):
                await self._send_error(first)
                raise _EndSession() from first
            raise
        finally:
            if read_task is not None:
                read_task.cancel()
                try:
                    await read_task
                except BaseException:
                    pass

        handle.note_backup(report)
        self.daemon.note_session("backup")
        self.writer.write(encode_json(FrameType.BACKUP_DONE, report))
        await self.writer.drain()

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
            else max(1, min(int(requested), self.daemon.restore_workers))
        )
        readahead = obj.get("readahead")
        if readahead is not None:
            readahead = max(1, min(int(readahead), 64))
        rel = obj.get("file")
        if rel is not None:
            rel = validate_rel_name(str(rel))
        return {
            "workers": workers,
            "readahead": readahead,
            "verify": bool(obj.get("verify", False)),
            "file": rel,
        }

    async def _handle_restore(self, obj: dict) -> None:
        handle = self.daemon.registry.get(obj.get("repo"))
        version = int(obj.get("version", 0))
        options = self._restore_options(obj)
        metrics = self.daemon.metrics
        # In a cluster, the router sends restores to the tenant's primary;
        # a restore served by a replica holder *is* a failover (the primary
        # is down or draining) — count it where operators can see it.
        cluster, node = self.daemon.cluster, self.daemon.node_name
        if cluster is not None and node and cluster.has_node(node):
            if not cluster.is_primary(node, handle.name):
                metrics.inc("cluster.failovers")
                self.daemon.events.log(
                    "cluster_failover_serve",
                    repo=handle.name,
                    node=node,
                    primary=cluster.primary(handle.name).name,
                    version=version,
                )
        async with handle.lock.read_locked():
            handle.active_ops += 1
            pump = _RestorePump(
                asyncio.get_running_loop(),
                lambda: handle.repository.restore(version, **options),
            )
            pump.start()
            try:
                await self._send_restore(handle, version, pump)
            except asyncio.CancelledError:
                # The daemon is going down with no patience left: tell the
                # thread to stop, do not wait out its current read.
                pump.stop()
                raise
            except BaseException:
                # The read lock must outlive the engine thread: it leaves
                # the repository at once if parked on the window, else
                # after the read it is in.
                await pump.close()
                raise
            finally:
                handle.active_ops -= 1

    async def _send_restore(self, handle: RepoHandle, version: int, pump: _RestorePump) -> None:
        """Write one restore's frames as the pump produces them."""
        metrics = self.daemon.metrics
        # Open-time failures (unknown version or file) surface here, before
        # any data, and leave as a typed ERROR frame.
        plan = await pump.take()
        self.writer.write(
            encode_json(
                FrameType.RESTORE_META,
                {"version": version, "files": [[rel, size] for rel, size in plan]},
            )
        )
        await self.writer.drain()
        frames = sent_bytes = 0
        send_seconds = wait_seconds = 0.0
        while True:
            mark = time.perf_counter()
            frame = await pump.take()
            taken = time.perf_counter()
            wait_seconds += taken - mark
            if frame is None:
                break
            self.writer.write(frame)
            await self.writer.drain()  # TCP backpressure for the stream
            send_seconds += time.perf_counter() - taken
            frames += 1
            sent_bytes += len(frame) - HEADER_SIZE
        self.writer.write(
            encode_json(
                FrameType.RESTORE_END, {"chunks": pump.chunks, "bytes": sent_bytes}
            )
        )
        await self.writer.drain()
        metrics.observe("restore.send_seconds", send_seconds)
        metrics.observe("restore.pump_wait_seconds", wait_seconds)
        metrics.inc("restore.frames", frames)
        handle.note_restore(sent_bytes)
        metrics.inc("server.restore_bytes", sent_bytes)
        self.daemon.note_session("restore")

    # ------------------------------------------------------------------
    # Control requests
    # ------------------------------------------------------------------
    async def _handle_stats(self, obj: dict) -> None:
        name = obj.get("repo")
        if name is None:
            # Whole-server stats: sample each repo under its read lock, as
            # the single-repo path does, so an active backup or rollback on
            # one tenant is never observed mid-mutation.
            names = await asyncio.to_thread(self.daemon.registry.repo_names)
            repos: Dict[str, Dict] = {}
            for repo_name in names:
                handle = self.daemon.registry.get(repo_name, create=True)
                async with handle.lock.read_locked():
                    repos[repo_name] = await asyncio.to_thread(handle.stats)
            doc: Dict = {"repos": repos, "server": self.daemon.server_stats()}
        else:
            handle = self.daemon.registry.get(name)
            async with handle.lock.read_locked():
                doc = await asyncio.to_thread(handle.stats)
        doc["metrics"] = self.daemon.metrics.snapshot()
        self.daemon.note_session("stats")
        self.writer.write(encode_json(FrameType.STATS_OK, doc))
        await self.writer.drain()

    async def _handle_versions(self, obj: dict) -> None:
        handle = self.daemon.registry.get(obj.get("repo"))
        async with handle.lock.read_locked():
            rows = await asyncio.to_thread(handle.repository.versions)
        self.daemon.note_session("versions")
        self.writer.write(encode_json(FrameType.VERSIONS_OK, {"versions": rows}))
        await self.writer.drain()

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

    async def _handle_replicate_state(self, obj: dict) -> None:
        handle = self.daemon.registry.get(obj.get("repo"), create=True)
        async with handle.lock.read_locked():
            state = await asyncio.to_thread(capture_state, handle.repository.root)
        self.daemon.note_session("replicate_state")
        self.writer.write(
            encode_json(
                FrameType.REPLICATE_STATE_OK,
                {"state": state, "identity": source_identity(handle.repository.root)},
            )
        )
        await self.writer.drain()

    async def _handle_replicate_put(self, obj: dict) -> None:
        if self.daemon.draining:
            raise ServerDrainingError("server is draining; retry the sync elsewhere")
        handle = self.daemon.registry.get(obj.get("repo"), create=True)
        kind, name = self._replication_object(obj)
        size = obj.get("size")
        if not isinstance(size, int) or size < 0 or size > _MAX_OBJECT:
            raise ProtocolError(f"REPLICATE_PUT announces invalid size {size!r}")
        digest = str(obj.get("digest", "") or "")
        staged = bool(obj.get("staged", False))
        parts = []
        received = 0
        while received < size:
            ftype, payload = await read_frame(self.reader)
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
        async with handle.lock.read_locked():
            handle.active_ops += 1
            try:
                await asyncio.to_thread(
                    write_object, handle.repository.root, kind, name, blob, staged
                )
            finally:
                handle.active_ops -= 1
        self.daemon.metrics.inc("server.replicate_bytes", len(blob))
        self.daemon.note_session("replicate_put")
        self.writer.write(
            encode_json(FrameType.REPLICATE_PUT_OK, {"bytes": len(blob)})
        )
        await self.writer.drain()

    async def _handle_replicate_commit(self, obj: dict) -> None:
        handle = self.daemon.registry.get(obj.get("repo"), create=True)
        renames = self._replication_refs(obj.get("renames", []), "renames")
        deletes = self._replication_refs(obj.get("deletes", []), "deletes")
        async with handle.lock.write_locked():
            handle.active_ops += 1
            try:
                applied = await asyncio.to_thread(
                    commit_objects, handle.repository.root, renames, deletes
                )
                handle.repository.invalidate()
            finally:
                handle.active_ops -= 1
        # A replica sync commits on ring *successors*; a commit landing on
        # the tenant's *primary* is a rebalance move arriving at its new
        # home (the mover ships old-placement → new-primary).
        cluster, node = self.daemon.cluster, self.daemon.node_name
        if cluster is not None and node and cluster.has_node(node):
            if cluster.is_primary(node, handle.name):
                self.daemon.metrics.inc("cluster.tenants_moved")
                self.daemon.events.log(
                    "cluster_tenant_moved", repo=handle.name, node=node
                )
        self.daemon.note_session("replicate_commit")
        self.writer.write(
            encode_json(FrameType.REPLICATE_COMMIT_OK, {"applied": applied})
        )
        await self.writer.drain()

    async def _handle_replicate_fetch(self, obj: dict) -> None:
        handle = self.daemon.registry.get(obj.get("repo"))
        kind, name = self._replication_object(obj)
        root = handle.repository.root
        async with handle.lock.read_locked():
            # Whole-container reads on plain-directory (file) roots go
            # kernel-to-kernel: one CHUNK_DATA header, then os.sendfile
            # ships the file without the payload ever entering user space.
            # The read lock is held across the send so compaction cannot
            # rewrite the container under the in-flight copy.
            path = (
                object_path(root, kind, name) if not is_repo_url(root) else None
            )
            if path is not None and os.path.isfile(path):
                size = os.path.getsize(path)
                if 0 < size <= MAX_PAYLOAD:
                    self.daemon.note_session("replicate_fetch")
                    self.writer.write(
                        encode_json(FrameType.REPLICATE_OBJECT, {"size": size})
                    )
                    self.writer.write(encode_data_header(size))
                    await self.writer.drain()
                    loop = asyncio.get_running_loop()
                    with open(path, "rb") as payload_file:
                        try:
                            await loop.sendfile(
                                self.writer.transport, payload_file, fallback=True
                            )
                        except (NotImplementedError, RuntimeError):
                            # Transport cannot sendfile (e.g. SSL or a test
                            # double): stream it the classic way.
                            while True:
                                block = payload_file.read(DATA_BLOCK)
                                if not block:
                                    break
                                self.writer.write(block)
                                await self.writer.drain()
                    await self.writer.drain()
                    return
            blob = await asyncio.to_thread(read_object, root, kind, name)
        self.daemon.note_session("replicate_fetch")
        self.writer.write(encode_json(FrameType.REPLICATE_OBJECT, {"size": len(blob)}))
        view = memoryview(blob)
        for offset in range(0, len(blob), DATA_BLOCK):
            self.writer.writelines(
                frame_parts(FrameType.CHUNK_DATA, view[offset : offset + DATA_BLOCK])
            )
            await self.writer.drain()
        await self.writer.drain()

    async def _handle_verify(self, obj: dict) -> None:
        handle = self.daemon.registry.get(obj.get("repo"))
        deep = bool(obj.get("deep", False))
        async with handle.lock.read_locked():
            doc = await asyncio.to_thread(handle.repository.verify, deep)
        self.daemon.note_session("verify")
        self.writer.write(encode_json(FrameType.VERIFY_OK, doc))
        await self.writer.drain()

    # ------------------------------------------------------------------
    # Cluster control plane
    # ------------------------------------------------------------------
    async def _handle_cluster_map(self, obj: dict) -> None:
        # Gossip on ping: a clustered peer may attach its own map; adopt
        # it when strictly newer (epoch monotonicity — never downgrade).
        # This is how a promotion minted by one daemon reaches the rest,
        # and how a rejoining stale daemon learns it was demoted.
        offered = obj.get("map")
        if offered is not None and self.daemon.cluster is not None:
            self.daemon.adopt_cluster_map(offered, source="peer")
        cluster = self.daemon.cluster
        self.daemon.note_session("cluster_map")
        self.writer.write(
            encode_json(
                FrameType.CLUSTER_MAP_OK,
                {
                    "map": cluster.as_doc() if cluster is not None else None,
                    "node": self.daemon.node_name,
                    "draining": self.daemon.draining,
                },
            )
        )
        await self.writer.drain()

    async def _handle_cluster_sync(self, obj: dict) -> None:
        if self.daemon.draining:
            raise ServerDrainingError("server is draining; sync from the next epoch")
        repo = obj.get("repo")
        doc = await self.daemon.sync_owned(str(repo) if repo else None)
        self.daemon.note_session("cluster_sync")
        self.writer.write(encode_json(FrameType.CLUSTER_SYNC_OK, doc))
        await self.writer.drain()

    async def _handle_tenant_drop(self, obj: dict) -> None:
        if self.daemon.draining:
            raise ServerDrainingError("server is draining; refusing tenant drop")
        handle = self.daemon.registry.get(obj.get("repo"))
        async with handle.lock.write_locked():
            removed = await asyncio.to_thread(self.daemon.registry.drop, handle.name)
        self.daemon.note_session("tenant_drop")
        self.daemon.events.log("tenant_drop", repo=handle.name, removed=removed)
        self.writer.write(
            encode_json(FrameType.TENANT_DROP_OK, {"repo": handle.name, "removed": removed})
        )
        await self.writer.drain()

    async def _handle_delete_oldest(self, obj: dict) -> None:
        await self.daemon.ensure_write_primary(obj.get("repo"))
        handle = self.daemon.registry.get(obj.get("repo"))
        async with handle.lock.write_locked():
            handle.active_ops += 1
            try:
                result = await asyncio.to_thread(handle.repository.delete_oldest)
            finally:
                handle.active_ops -= 1
        handle.note_delete()
        self.daemon.note_session("delete")
        self.writer.write(encode_json(FrameType.DELETE_OK, result))
        await self.writer.drain()


class BackupDaemon:
    """The multi-tenant asyncio backup service.

    Args:
        root: directory holding one repository subdirectory per tenant.
        host / port: listen address (port 0 picks a free port; see
            :attr:`address` after :meth:`start`).
        window: ingest credit window, in CHUNK_DATA frames per backup.
        restore_workers: server-side cap on the restore container-reader
            pool a client may ask for with ``RESTORE_BEGIN``'s ``workers``;
            a request that names none is served serially.
        history_depth / compress: forwarded to newly created repositories.
        drain_timeout: seconds in-flight sessions get to finish on
            :meth:`shutdown` before being cancelled into rollback.
        metrics: the :class:`MetricsRegistry` to record into (defaults to
            the process registry, so engine-layer timings land beside the
            daemon's own request histograms).
        event_log: structured event sink; defaults to the no-op logger.
        metrics_interval: seconds between periodic ``metrics_report``
            events in the event log (0 disables the reporter).
        cluster_map: the cluster this daemon belongs to — a
            :class:`~repro.cluster.map.ClusterMap` or its document form.
            A clustered daemon serves the map over ``CLUSTER_MAP``, counts
            routed traffic and failover-served restores, and can replicate
            its primary-owned tenants to their ring successors.
        node_name: this daemon's node name within ``cluster_map``.
        replicate_interval: seconds between automatic replica syncs of
            primary-owned tenants to their ring successors (0 disables;
            requires ``cluster_map`` + ``node_name``).
        probe_interval: seconds between health probes of this node's ring
            predecessor (0 disables; requires ``cluster_map`` +
            ``node_name``).  With probing on, ``probe_failures``
            consecutive failed probes declare the predecessor dead: this
            daemon mints an epoch-bumped map marking it down, deep-verifies
            its own replicas of the tenants it inherits before adopting the
            map, and gossips the new map to the live peers.
        probe_failures: consecutive probe failures before a predecessor is
            declared dead (>= 1).
        probe_timeout: per-probe connect/read deadline in seconds — kept
            short so a dead peer is detected in roughly
            ``probe_failures * (probe_interval + probe_timeout)``.
        ingest_workers: size of the daemon-lifetime shared chunking pool
            (``serve --ingest-workers``).  ``0`` keeps the serial inline
            ingest path; ``N >= 1`` chunks every tenant's backups on one
            :class:`~repro.engine.shared_pool.SharedChunkPool` — segments
            ship to workers through shared-memory slabs, crashed workers
            respawn transparently, and any value of ``N`` produces
            byte-identical recipes, containers and dedup stats.
        ingest_executor: ``"process"`` (default) or ``"thread"`` — the
            executor kind behind the shared pool.  Threads exist for
            platforms where fork is unavailable and for determinism tests.
    """

    def __init__(
        self,
        root: str,
        host: str = "127.0.0.1",
        port: int = 0,
        window: int = DEFAULT_WINDOW,
        history_depth: int = 1,
        compress: bool = False,
        drain_timeout: float = 10.0,
        restore_workers: int = 4,
        metrics: Optional[MetricsRegistry] = None,
        event_log: Optional[EventLogger] = None,
        metrics_interval: float = 0.0,
        cluster_map: Optional[object] = None,
        node_name: Optional[str] = None,
        replicate_interval: float = 0.0,
        probe_interval: float = 0.0,
        probe_failures: int = 3,
        probe_timeout: float = 2.0,
        ingest_workers: int = 0,
        ingest_executor: str = "process",
    ) -> None:
        if window < 1:
            raise ReproError("credit window must be at least 1 frame")
        if restore_workers < 1:
            raise ReproError("restore_workers must be at least 1")
        if ingest_workers < 0:
            raise ReproError("ingest_workers must be >= 0 (0 = serial ingest)")
        if cluster_map is None:
            self.cluster: Optional[ClusterMap] = None
        elif isinstance(cluster_map, ClusterMap):
            self.cluster = cluster_map
        else:
            self.cluster = ClusterMap.from_doc(cluster_map)
        self.node_name = node_name
        if self.cluster is not None and node_name and not self.cluster.has_node(node_name):
            raise ClusterError(
                f"node {node_name!r} is not in cluster map epoch {self.cluster.epoch}"
            )
        if replicate_interval > 0 and (self.cluster is None or not node_name):
            raise ClusterError(
                "replicate_interval needs a cluster map and a node name"
            )
        if probe_interval > 0 and (self.cluster is None or not node_name):
            raise ClusterError("probe_interval needs a cluster map and a node name")
        if probe_failures < 1:
            raise ClusterError(f"probe_failures must be >= 1, got {probe_failures}")
        self.replicate_interval = replicate_interval
        self.probe_interval = probe_interval
        self.probe_failures = probe_failures
        self.probe_timeout = probe_timeout
        self.metrics = metrics if metrics is not None else get_registry()
        # One chunking pool for the daemon's whole lifetime, shared by every
        # tenant and session: CDC + SHA-1 escape the event loop's GIL, and
        # the slab free-list bounds total in-flight segment memory however
        # many backups run concurrently.
        self.ingest_workers = ingest_workers
        self.ingest_pool: Optional[SharedChunkPool] = (
            SharedChunkPool(
                ingest_workers, executor=ingest_executor, metrics=self.metrics
            )
            if ingest_workers >= 1
            else None
        )
        # Hosted repositories record their stage timings (chunking, dedup,
        # container I/O) into the daemon's registry, so STATS metrics tell
        # one consistent story per daemon.
        self.registry = RepositoryRegistry(
            root, history_depth, compress, self.metrics,
            ingest_pool=self.ingest_pool,
        )
        self.host = host
        self.port = port
        self.window = window
        self.restore_workers = restore_workers
        self.drain_timeout = drain_timeout
        self.events = event_log if event_log is not None else EventLogger()
        self.metrics_interval = metrics_interval
        self.draining = False
        self._server: Optional[asyncio.AbstractServer] = None
        self._sessions: Set[asyncio.Task] = set()
        self._reporter: Optional[asyncio.Task] = None
        self._syncer: Optional[asyncio.Task] = None
        self._prober: Optional[asyncio.Task] = None
        self._resyncer: Optional[asyncio.Task] = None
        # Promotion verify gate state, keyed (tenant, epoch): tenants whose
        # replica passed the deep verify for an epoch vs. tenants fenced
        # because the verify failed (or the local copy is missing).
        self._promotion_ok: Set[Tuple[str, int]] = set()
        self._fenced: Set[Tuple[str, int]] = set()
        # Epoch whose demotion resync completed cleanly (every hosted
        # tenant pulled + deep-verified): the prober may mint a revive map
        # for it, returning this node's natural primaryship.
        self._resync_clean: Optional[int] = None
        self._started = time.monotonic()
        self._session_counts: Dict[str, int] = {}

    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listener (resolves the real port for ``port=0``)."""
        if self.ingest_pool is not None:
            # Reclaim slabs leaked by a previous daemon that died without
            # unlinking, then spawn the workers *before* the first backup
            # arrives — forking from a thread-quiet moment is safest, and
            # eager spawn keeps first-backup latency flat.
            swept = await asyncio.to_thread(sweep_orphaned_segments, self.metrics)
            if swept:
                self.events.log("ingest_orphans_swept", segments=swept)
            await asyncio.to_thread(self.ingest_pool.warm)
        self._server = await asyncio.start_server(self._accept, self.host, self.port)
        self._started = time.monotonic()
        self.port = self._server.sockets[0].getsockname()[1]
        self.events.log("daemon_start", address=self.address, window=self.window)
        if self.metrics_interval > 0:
            self._reporter = asyncio.ensure_future(self._report_metrics())
        if self.replicate_interval > 0:
            self._syncer = asyncio.ensure_future(self._replica_sync_loop())
        if self.probe_interval > 0:
            self._prober = asyncio.ensure_future(self._health_loop())

    async def _report_metrics(self) -> None:
        while True:
            await asyncio.sleep(self.metrics_interval)
            self.events.log(
                "metrics_report",
                metrics=self.metrics.snapshot(),
                server=self.server_stats(),
            )

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    # ------------------------------------------------------------------
    # Listener partition (chaos harness)
    # ------------------------------------------------------------------
    async def pause_accepting(self) -> None:
        """Close the listener without draining: a network partition.

        In-flight sessions keep running; *new* connections are refused
        until :meth:`resume_accepting` re-binds the same port.  The chaos
        harness partitions a mirror daemon this way — the daemon process
        stays healthy, only its front door disappears.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
            self.events.log("daemon_pause_accepting", address=self.address)

    async def resume_accepting(self) -> None:
        """Heal a :meth:`pause_accepting` partition (re-bind the port)."""
        if self._server is None:
            self._server = await asyncio.start_server(
                self._accept, self.host, self.port
            )
            self.events.log("daemon_resume_accepting", address=self.address)

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    async def _accept(self, reader, writer) -> None:
        session = _Session(self, reader, writer)
        task = asyncio.current_task()
        self._sessions.add(task)
        try:
            await session.run()
        except asyncio.CancelledError:
            # Shutdown cancelled this session; the connection teardown in
            # session.run's finally already ran.  Finish quietly so asyncio's
            # stream machinery does not log the cancellation as a crash.
            pass
        finally:
            self._sessions.discard(task)

    # ------------------------------------------------------------------
    def note_session(self, kind: str) -> None:
        self._session_counts[kind] = self._session_counts.get(kind, 0) + 1

    def server_stats(self) -> Dict:
        return {
            "address": self.address,
            "uptime_seconds": time.monotonic() - self._started,
            "active_connections": len(self._sessions),
            "draining": self.draining,
            "requests": dict(self._session_counts),
            "window": self.window,
        }

    # ------------------------------------------------------------------
    async def replicate_tenant(self, name: str, target) -> "SyncReport":
        """Mirror one hosted tenant to ``target`` under its reader lock.

        The reader lock gives the sync a consistent snapshot — backups and
        ``delete_oldest`` (writers) wait until the sync finishes, while
        concurrent restores (readers) proceed.  A deletion landing after
        the sync propagates to the mirror on the *next* sync (§4.5 expiry
        tags make that an O(1) container-unlink on the mirror).
        """
        from ..replication.session import ReplicationSession

        handle = self.registry.get(name)
        async with handle.lock.read_locked():
            handle.active_ops += 1
            try:
                session = ReplicationSession(
                    handle.repository.root, target, metrics=self.metrics
                )
                report = await asyncio.to_thread(session.run)
            finally:
                handle.active_ops -= 1
        self.note_session("replicate")
        self.events.log(
            "replicate_tenant", repo=name, **report.as_dict()
        )
        return report

    # ------------------------------------------------------------------
    async def sync_owned(self, repo: Optional[str] = None) -> Dict:
        """Replicate this node's primary-owned tenants to their successors.

        The cluster's durability loop: each tenant whose ring primary is
        this node is shipped (O(delta), via :class:`ReplicationSession`) to
        every ring successor.  Tenants this node merely replicates are
        skipped — only primaries push, so replica state never forks.
        Per-successor failures are collected rather than fatal: one dead
        replica must not stop the others from staying fresh.
        """
        if self.cluster is None or not self.node_name:
            raise ClusterError("this daemon is not part of a cluster")
        from ..replication.targets import RemoteMirror

        if repo is not None:
            names = [self.registry.validate_name(repo)]
        else:
            names = await asyncio.to_thread(self.registry.repo_names)
        doc: Dict = {
            "node": self.node_name,
            "epoch": self.cluster.epoch,
            "synced": {},
            "skipped": [],
            "errors": {},
        }
        for name in names:
            if not self.cluster.is_primary(self.node_name, name):
                doc["skipped"].append(name)
                continue
            per_successor: Dict[str, Dict] = {}
            for succ in self.cluster.successors(name):
                mirror = RemoteMirror(succ.address, name)
                try:
                    report = await self.replicate_tenant(name, mirror)
                    per_successor[succ.name] = report.as_dict()
                    self.metrics.inc("cluster.replica_syncs")
                except (ReproError, OSError) as exc:
                    doc["errors"][f"{name}->{succ.name}"] = f"{type(exc).__name__}: {exc}"
                    self.metrics.inc("cluster.replica_sync_failures")
                    self.events.log(
                        "cluster_replica_sync_failed",
                        repo=name,
                        successor=succ.name,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                finally:
                    await asyncio.to_thread(mirror.close)
            doc["synced"][name] = per_successor
        return doc

    async def _replica_sync_loop(self) -> None:
        """Background ``sync_owned`` pacemaker (``--replicate-interval``)."""
        while True:
            await asyncio.sleep(self.replicate_interval)
            if self.draining:
                return
            try:
                await self.sync_owned()
            except (ReproError, OSError) as exc:  # pragma: no cover - timing
                self.events.log(
                    "cluster_replica_sync_failed",
                    repo="*",
                    successor="*",
                    error=f"{type(exc).__name__}: {exc}",
                )

    # ------------------------------------------------------------------
    # Health-driven failover: probe -> promote -> verify -> gossip.
    # ------------------------------------------------------------------
    def adopt_cluster_map(self, doc: object, source: str = "peer") -> bool:
        """Adopt ``doc`` if it is a strictly newer epoch than our map.

        Epoch monotonicity is the whole safety story for map exchange:
        adopt-highest, never downgrade.  A daemon that learns (from any
        peer, usually via its own health probe) that a newer map marks
        *itself* down demotes: it schedules a resync pull of every hosted
        tenant from that tenant's acting primary, and until placement says
        otherwise its write fence (:meth:`ensure_write_primary`) refuses
        mutations — the rejoining old primary cannot fork history.
        """
        if self.cluster is None:
            return False
        try:
            candidate = doc if isinstance(doc, ClusterMap) else ClusterMap.from_doc(doc)
        except ClusterError:
            return False
        fresh = newer_map(self.cluster, candidate)
        if fresh is self.cluster:
            return False
        was_down = bool(self.node_name) and self.cluster.has_node(self.node_name) \
            and self.cluster.is_down(self.node_name)
        self.cluster = fresh
        self.metrics.inc("cluster.maps_adopted")
        self.events.log(
            "cluster_map_adopted",
            epoch=fresh.epoch,
            source=source,
            down=fresh.down_names(),
        )
        now_down = bool(self.node_name) and fresh.has_node(self.node_name) \
            and fresh.is_down(self.node_name)
        if now_down and not was_down:
            self.metrics.inc("cluster.demotions")
            self.events.log(
                "cluster_demoted", node=self.node_name, epoch=fresh.epoch
            )
            self._schedule_resync()
        return True

    def _schedule_resync(self) -> None:
        if self._resyncer is not None and not self._resyncer.done():
            return
        self._resyncer = asyncio.ensure_future(self._resync_demoted())

    async def _resync_demoted(self) -> None:
        """Pull every hosted tenant back in sync from its acting primary.

        Runs on a daemon that discovered (via map adoption) it was marked
        down while it was away: whatever it missed lives on the promoted
        primaries now.  Each pull is the O(delta) planner diff
        (:func:`~repro.cluster.failover.pull_tenant`) under the tenant's
        write lock, so a concurrent restore never sees a torn copy.
        """
        from ..client.remote import RemoteRepository
        from ..cluster.failover import pull_tenant

        cluster = self.cluster
        if cluster is None or not self.node_name:
            return
        epoch = cluster.epoch
        clean = True
        names = await asyncio.to_thread(self.registry.repo_names)
        for name in names:
            acting = cluster.primary(name)
            if acting.name == self.node_name or acting.down:
                continue
            remote = RemoteRepository(
                acting.address, name, timeout=max(self.probe_timeout, 10.0),
                retries=1, backoff=0.0,
            )
            try:
                handle = self.registry.get(name)
                async with handle.lock.write_locked():
                    report = await asyncio.to_thread(
                        pull_tenant, remote, handle.repository.root
                    )
                    handle.repository.invalidate()
                    # Revive gate: the pulled copy must pass the same
                    # re-hash-every-chunk check promotion demands before
                    # this node may reclaim its natural primaryship.
                    verify = await asyncio.to_thread(
                        handle.repository.verify, True
                    )
                if not verify.get("ok"):
                    clean = False
                self.metrics.inc("cluster.resyncs")
                self.events.log(
                    "cluster_resync", repo=name, source=acting.name,
                    verified=bool(verify.get("ok")),
                    verify_seconds=verify.get("seconds"), **report
                )
            except (ReproError, OSError) as exc:
                clean = False
                self.metrics.inc("cluster.resync_failures")
                self.events.log(
                    "cluster_resync_failed",
                    repo=name,
                    source=acting.name,
                    error=f"{type(exc).__name__}: {exc}",
                )
            finally:
                await asyncio.to_thread(remote.close)
        if clean:
            # Every hosted tenant is back in sync and deep-verified under
            # this epoch's placement: eligible for automatic revival.
            self._resync_clean = epoch
            self.events.log(
                "cluster_resync_clean", node=self.node_name, epoch=epoch
            )

    def _probe_once(self, address: str, offer: Dict) -> Tuple[bool, Optional[Dict]]:
        """One blocking health probe (runs in a worker thread).

        A ``CLUSTER_MAP`` round-trip with our own map attached: cheap
        liveness check and map gossip in one frame.  Short timeout, no
        retries — the health loop owns the consecutive-failure counting.
        """
        from ..client.remote import RemoteRepository

        remote = RemoteRepository(
            address, "-", timeout=self.probe_timeout, retries=1, backoff=0.0
        )
        try:
            reply = remote.cluster_map(offer=offer)
            return True, reply.get("map")
        finally:
            remote.close()

    async def _health_loop(self) -> None:
        """Probe the ring predecessor; promote after N consecutive failures.

        Every daemon probes exactly one peer — its nearest *live*
        predecessor in ring-walk order — so each node has exactly one
        watcher and a promotion has a single minting owner (the watcher is
        also the node that inherits the dead node's primaries).  Probes
        double as gossip: the peer's map rides back on the reply and newer
        epochs are adopted, which is how a rejoining stale daemon finds
        out about its own demotion within one probe interval.
        """
        failures = 0
        watched: Optional[str] = None
        while True:
            await asyncio.sleep(self.probe_interval)
            if self.draining:
                return
            cluster = self.cluster
            if cluster is None or not self.node_name:
                continue
            await self._maybe_revive()
            cluster = self.cluster  # _maybe_revive may have minted a new map
            target = cluster.probe_target(self.node_name)
            if target is None:
                continue
            if target.name != watched:
                watched = target.name
                failures = 0
            try:
                ok, peer_doc = await asyncio.to_thread(
                    self._probe_once, target.address, cluster.as_doc()
                )
            except (ReproError, OSError) as exc:
                ok, peer_doc = False, None
                error = f"{type(exc).__name__}: {exc}"
            if ok:
                failures = 0
                if peer_doc is not None:
                    self.adopt_cluster_map(peer_doc, source=target.name)
                continue
            failures += 1
            self.metrics.inc("cluster.probe_failures")
            self.events.log(
                "cluster_probe_failed",
                node=self.node_name,
                target=target.name,
                failures=failures,
                threshold=self.probe_failures,
                error=error,
            )
            if failures >= self.probe_failures:
                failures = 0
                try:
                    await self._promote_dead(target.name)
                except ClusterError:
                    # Raced with another map change (e.g. the peer was
                    # already marked down via gossip); the next probe
                    # re-reads the map and re-targets.
                    pass

    async def _maybe_revive(self) -> None:
        """Un-mark this node once its demotion resync deep-verified clean.

        The inverse of :meth:`_promote_dead`, self-minted: a daemon the
        current map marks down, whose :meth:`_resync_demoted` pulled every
        hosted tenant back in sync *and* deep-verified them under this very
        epoch, publishes an epoch-bumped map clearing its own down marker.
        Natural primaryship returns automatically — the previously promoted
        acting primary adopts the newer epoch via gossip and its write
        fence starts refusing, so clients re-route without an operator
        rebalance.
        """
        cluster = self.cluster
        if cluster is None or not self.node_name:
            return
        if not cluster.has_node(self.node_name) or not cluster.is_down(self.node_name):
            return
        if self._resync_clean != cluster.epoch:
            # Stale or missing resync: a newer epoch landed since the last
            # clean pull, so re-run the resync under it first.
            if self._resyncer is None or self._resyncer.done():
                self._schedule_resync()
            return
        try:
            revived = cluster.revive(self.node_name, by=self.node_name)
        except ClusterError:  # pragma: no cover - raced another map change
            return
        self.cluster = revived
        self._resync_clean = None
        self.metrics.inc("cluster.revivals")
        self.events.log(
            "cluster_revived", node=self.node_name, epoch=revived.epoch
        )
        await self._offer_map(revived)

    async def _promote_dead(self, dead: str) -> None:
        """Mint and adopt the failover map declaring ``dead`` down.

        Verify-before-serve: before the minted map is adopted (and hence
        before the write fence lets the first redirected write through),
        every tenant this node inherits the primary role for gets its
        local replica deep-verified — the same re-hash-every-chunk check
        the rebalancer runs before a ``TENANT_DROP``.  Tenants that fail
        (or are missing locally) stay fenced; healthy tenants start taking
        writes immediately.  The map then gossips to all live peers so
        clients can learn the new epoch from any seed.
        """
        cluster = self.cluster
        if cluster is None or not self.node_name:
            return
        promoted = cluster.promote(dead, by=self.node_name)
        names = await asyncio.to_thread(self.registry.repo_names)
        gained = [
            name
            for name in names
            if promoted.primary(name).name == self.node_name
            and cluster.primary(name).name == dead
        ]
        for name in gained:
            await self._verify_promoted(name, promoted.epoch)
        self.cluster = promoted
        self.metrics.inc("cluster.promotions")
        self.events.log(
            "cluster_promoted",
            node=self.node_name,
            dead=dead,
            epoch=promoted.epoch,
            tenants=gained,
        )
        await self._offer_map(promoted)

    async def _offer_map(self, cmap: ClusterMap) -> None:
        """Push ``cmap`` to every live peer (best effort, gossip backstop)."""
        doc = cmap.as_doc()
        for node in cmap.live_nodes():
            if node.name == self.node_name:
                continue
            try:
                await asyncio.to_thread(self._probe_once, node.address, doc)
            except (ReproError, OSError):  # pragma: no cover - peer down
                pass

    async def _verify_promoted(self, name: str, epoch: int) -> bool:
        """Deep-verify the local replica of ``name`` for promotion ``epoch``.

        The PR 7 verify-before-drop check repurposed as verify-before-
        serve: every chunk of every container is re-hashed against its
        fingerprint before this node accepts a write for a tenant it was
        promoted into.  Results are cached per (tenant, epoch); a missing
        local copy is conservatively fenced — inventing a fresh history
        for a tenant we never replicated is exactly the fork this exists
        to prevent.
        """
        key = (name, epoch)
        if key in self._promotion_ok:
            return True
        if key in self._fenced:
            return False
        try:
            handle = self.registry.get(name)
        except RemoteError:
            self._fenced.add(key)
            self.metrics.inc("cluster.promotion_verify_failures")
            self.events.log(
                "cluster_promotion_verify_failed",
                repo=name,
                epoch=epoch,
                error="no local replica",
            )
            return False
        try:
            async with handle.lock.read_locked():
                handle.active_ops += 1
                try:
                    report = await asyncio.to_thread(
                        handle.repository.verify, True
                    )
                finally:
                    handle.active_ops -= 1
        except (ReproError, OSError) as exc:
            self._fenced.add(key)
            self.metrics.inc("cluster.promotion_verify_failures")
            self.events.log(
                "cluster_promotion_verify_failed",
                repo=name,
                epoch=epoch,
                error=f"{type(exc).__name__}: {exc}",
            )
            return False
        ok = bool(report.get("ok"))
        if ok:
            self._promotion_ok.add(key)
            self.events.log(
                "cluster_promotion_verified",
                repo=name,
                epoch=epoch,
                entries=report.get("entries_checked"),
                verify_seconds=report.get("seconds"),
            )
        else:
            self._fenced.add(key)
            self.metrics.inc("cluster.promotion_verify_failures")
            self.events.log(
                "cluster_promotion_verify_failed",
                repo=name,
                epoch=epoch,
                error=report.get("summary", "verify failed"),
                verify_seconds=report.get("seconds"),
            )
        return ok

    async def ensure_write_primary(self, name: Optional[str]) -> None:
        """The write fence: refuse mutations we are not entitled to take.

        Raises :class:`NotPrimaryError` when this clustered daemon is not
        the tenant's acting primary under its current map (a stale client,
        or a rejoined old primary the client has not re-routed from), and
        when this node *is* acting primary via promotion but the replica
        has not passed its deep verify yet.  Unclustered daemons are
        unaffected.
        """
        if self.cluster is None or not self.node_name or not name:
            return
        acting = self.cluster.primary(name)
        if acting.name != self.node_name:
            raise NotPrimaryError(
                f"node {self.node_name!r} is not the primary for {name!r} "
                f"in epoch {self.cluster.epoch} ({acting.name!r} is); "
                "refresh the cluster map and retry there"
            )
        if self.cluster.natural_primary(name).name == self.node_name:
            return
        if not await self._verify_promoted(name, self.cluster.epoch):
            raise NotPrimaryError(
                f"promotion of {name!r} to node {self.node_name!r} "
                f"(epoch {self.cluster.epoch}) is not verified; "
                "writes are fenced until the replica passes deep verify"
            )

    # ------------------------------------------------------------------
    async def shutdown(self, drain_timeout: Optional[float] = None) -> None:
        """Graceful drain: stop accepting, let sessions finish, then cancel.

        In-flight backups either complete within the drain window or are
        cancelled — cancellation aborts the engine thread, which rolls the
        repository back before the session task finishes, so this method
        only returns once every repository is in a clean state.
        """
        timeout = self.drain_timeout if drain_timeout is None else drain_timeout
        self.draining = True
        for attr in ("_prober", "_resyncer"):
            task = getattr(self, attr)
            if task is not None:
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass
                setattr(self, attr, None)
        if self._syncer is not None:
            self._syncer.cancel()
            try:
                await self._syncer
            except asyncio.CancelledError:
                pass
            self._syncer = None
        if self._reporter is not None:
            self._reporter.cancel()
            try:
                await self._reporter
            except asyncio.CancelledError:
                pass
            self._reporter = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        tasks = [t for t in self._sessions if not t.done()]
        if tasks and timeout > 0:
            _done, pending = await asyncio.wait(tasks, timeout=timeout)
            tasks = list(pending)
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.wait(tasks, timeout=max(5.0, timeout))
        if self.ingest_pool is not None:
            # After the drain no engine thread can touch the pool; close
            # unlinks every shared-memory slab so nothing outlives us.
            await asyncio.to_thread(self.ingest_pool.close)
        self.events.log("daemon_stop", address=self.address)


class DaemonThread:
    """Run a :class:`BackupDaemon` on a background event-loop thread.

    The harness the tests, benchmarks and examples use::

        with DaemonThread(root) as address:
            RemoteRepository(address, "tenant").backup_tree(...)

    ``kill()`` models an operator SIGTERM with no drain patience: in-flight
    backups are cancelled and rolled back before it returns.
    """

    def __init__(self, root: str, **daemon_kwargs) -> None:
        self.daemon = BackupDaemon(root, **daemon_kwargs)
        self._loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, name="backup-daemon", daemon=True)
        self._stopped = False
        self._startup_error: Optional[BaseException] = None

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self.daemon.start())
        except BaseException as exc:
            # Stash the failure (port already bound, bad address, ...) for
            # start() to re-raise immediately instead of timing out.
            self._startup_error = exc
            self._ready.set()
            self._loop.close()
            return
        self._ready.set()
        self._loop.run_forever()
        self._loop.close()

    def start(self) -> str:
        self._thread.start()
        if not self._ready.wait(timeout=10):
            raise ReproError("backup daemon failed to start within 10s")
        if self._startup_error is not None:
            self._thread.join(timeout=5)
            raise self._startup_error
        return self.daemon.address

    @property
    def address(self) -> str:
        return self.daemon.address

    def stop(self, drain_timeout: Optional[float] = None) -> None:
        """Drain gracefully, stop the loop, join the thread."""
        if self._stopped:
            return
        self._stopped = True
        if self._startup_error is not None or not self._thread.is_alive():
            self._thread.join(timeout=10)
            return
        future = asyncio.run_coroutine_threadsafe(
            self.daemon.shutdown(drain_timeout), self._loop
        )
        future.result(timeout=60)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)

    def kill(self) -> None:
        """Shut down with zero drain patience (in-flight work rolls back)."""
        self.stop(drain_timeout=0)

    def pause_accepting(self, timeout: float = 10.0) -> None:
        """Partition this daemon: refuse new connections (chaos harness)."""
        asyncio.run_coroutine_threadsafe(
            self.daemon.pause_accepting(), self._loop
        ).result(timeout=timeout)

    def resume_accepting(self, timeout: float = 10.0) -> None:
        """Heal a :meth:`pause_accepting` partition."""
        asyncio.run_coroutine_threadsafe(
            self.daemon.resume_accepting(), self._loop
        ).result(timeout=timeout)

    def __enter__(self) -> str:
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
