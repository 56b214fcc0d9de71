"""One client connection's frame conversation with the daemon.

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
"""

from __future__ import annotations

import asyncio
import os
import queue
import threading
import time
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from ..client.protocol import (
    DATA_BLOCK,
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
from ..errors import (
    ProtocolError,
    ReplicationError,
    ReproError,
    RemoteError,
    ServerDrainingError,
)
from ..observability import new_trace_id
from ..replication.planner import ObjectRef
from ..replication.state import blob_digest, validate_object
from ..repository import FilePlan, validate_rel_name
from .registry import RepoHandle

if TYPE_CHECKING:
    from .daemon import BackupDaemon

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
        peer = self.writer.get_extra_info("peername")
        self.daemon.events.log(
            "session_open", trace=self.trace, peer=str(peer) if peer else None
        )
        try:
            await self._handshake()
            while True:
                await self._dispatch(*await read_frame(self.reader))
        except (_EndSession, asyncio.IncompleteReadError, ConnectionError):
            pass  # told to hang up, or the client did (between requests too)
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
        hello = {
            "magic": MAGIC, "version": PROTOCOL_VERSION,
            "window": self.daemon.window, "trace": self.trace,
        }
        self.writer.write(encode_json(FrameType.HELLO_OK, hello))
        await self.writer.drain()

    async def _send_error(self, exc: BaseException) -> None:
        try:
            self.writer.write(encode_error(exc))
            await self.writer.drain()
        except (ConnectionError, OSError):
            pass

    async def _reply(self, ftype: FrameType, doc: Dict, kind: str) -> None:
        """Count the served request and send its one-frame answer."""
        self.daemon.note_session(kind)
        self.writer.write(encode_json(ftype, doc))
        await self.writer.drain()

    # ------------------------------------------------------------------
    async def _dispatch(self, ftype: FrameType, payload: bytes) -> None:
        entry = self._HANDLERS.get(ftype)
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
            await handler(self, obj)
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
        async with handle.writing():
            await self._run_backup(handle, plan, tag)

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
        if self.daemon.is_primary(handle.name) is False:
            metrics.inc("cluster.failovers")
            self.daemon.events.log(
                "cluster_failover_serve",
                repo=handle.name,
                node=self.daemon.node_name,
                primary=self.daemon.cluster.primary(handle.name).name,
                version=version,
            )
        async with handle.reading():
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
        await self._reply(FrameType.STATS_OK, doc, "stats")

    async def _handle_versions(self, obj: dict) -> None:
        handle = self.daemon.registry.get(obj.get("repo"))
        async with handle.lock.read_locked():
            rows = await asyncio.to_thread(handle.repository.versions)
        await self._reply(FrameType.VERSIONS_OK, {"versions": rows}, "versions")

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
            state = await asyncio.to_thread(handle.mirror.state)
        await self._reply(
            FrameType.REPLICATE_STATE_OK,
            {"state": state, "identity": handle.mirror.identity()},
            "replicate_state",
        )

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
        async with handle.reading():
            await asyncio.to_thread(handle.mirror.put, kind, name, blob, staged)
        self.daemon.metrics.inc("server.replicate_bytes", len(blob))
        await self._reply(
            FrameType.REPLICATE_PUT_OK, {"bytes": len(blob)}, "replicate_put"
        )

    async def _handle_replicate_commit(self, obj: dict) -> None:
        handle = self.daemon.registry.get(obj.get("repo"), create=True)
        renames = self._replication_refs(obj.get("renames", []), "renames")
        deletes = self._replication_refs(obj.get("deletes", []), "deletes")
        async with handle.writing():
            applied = await asyncio.to_thread(handle.mirror.commit, renames, deletes)
            handle.repository.invalidate()
        # A replica sync commits on ring *successors*; a commit landing on
        # the tenant's *primary* is a rebalance move arriving at its new
        # home (the mover ships old-placement → new-primary).
        if self.daemon.is_primary(handle.name):
            self.daemon.metrics.inc("cluster.tenants_moved")
            self.daemon.events.log(
                "cluster_tenant_moved", repo=handle.name, node=self.daemon.node_name
            )
        await self._reply(
            FrameType.REPLICATE_COMMIT_OK, {"applied": applied}, "replicate_commit"
        )

    async def _handle_replicate_fetch(self, obj: dict) -> None:
        handle = self.daemon.registry.get(obj.get("repo"))
        kind, name = self._replication_object(obj)
        async with handle.lock.read_locked():
            # Whole-object reads off a plain local directory go
            # kernel-to-kernel: one CHUNK_DATA header, then os.sendfile
            # ships the file without the payload ever entering user space.
            # The read lock is held across the send so compaction cannot
            # rewrite the container under the in-flight copy.
            path = handle.repository.storage.local_path(kind, name)
            if path is not None and os.path.isfile(path):
                size = os.path.getsize(path)
                if 0 < size <= MAX_PAYLOAD:
                    await self._reply(
                        FrameType.REPLICATE_OBJECT, {"size": size}, "replicate_fetch"
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
            blob = await asyncio.to_thread(handle.mirror.fetch, kind, name)
        await self._reply(
            FrameType.REPLICATE_OBJECT, {"size": len(blob)}, "replicate_fetch"
        )
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
        await self._reply(FrameType.VERIFY_OK, doc, "verify")

    # ------------------------------------------------------------------
    # Cluster control plane
    # ------------------------------------------------------------------
    async def _handle_cluster_map(self, obj: dict) -> None:
        # Gossip on ping: a clustered peer may attach its own map.  This is
        # how a promotion minted by one daemon reaches the rest, and how a
        # rejoining stale daemon learns it was demoted.
        if obj.get("map") is not None:
            self.daemon.adopt_cluster_map(obj["map"], source="peer")
        cluster = self.daemon.cluster
        await self._reply(
            FrameType.CLUSTER_MAP_OK,
            {
                "map": cluster.as_doc() if cluster is not None else None,
                "node": self.daemon.node_name,
                "draining": self.daemon.draining,
            },
            "cluster_map",
        )

    async def _handle_cluster_sync(self, obj: dict) -> None:
        if self.daemon.draining:
            raise ServerDrainingError("server is draining; sync from the next epoch")
        repo = obj.get("repo")
        doc = await self.daemon.sync_owned(str(repo) if repo else None)
        await self._reply(FrameType.CLUSTER_SYNC_OK, doc, "cluster_sync")

    async def _handle_tenant_drop(self, obj: dict) -> None:
        if self.daemon.draining:
            raise ServerDrainingError("server is draining; refusing tenant drop")
        handle = self.daemon.registry.get(obj.get("repo"))
        async with handle.lock.write_locked():
            removed = await asyncio.to_thread(self.daemon.registry.drop, handle.name)
        self.daemon.events.log("tenant_drop", repo=handle.name, removed=removed)
        await self._reply(
            FrameType.TENANT_DROP_OK, {"repo": handle.name, "removed": removed},
            "tenant_drop",
        )

    async def _handle_delete_oldest(self, obj: dict) -> None:
        await self.daemon.ensure_write_primary(obj.get("repo"))
        handle = self.daemon.registry.get(obj.get("repo"))
        async with handle.writing():
            result = await asyncio.to_thread(handle.repository.delete_oldest)
        handle.note_delete()
        await self._reply(FrameType.DELETE_OK, result, "delete")

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

