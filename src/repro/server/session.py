"""One client connection's frame conversation with the daemon.

Concurrency model: the event loop owns every socket between requests and
answers control requests itself; blocking engine work (chunking, dedup,
container I/O) runs on worker threads.  A data stream is the exception.
For the length of one, an engine thread owns the connection through a
:class:`_SocketLease`, a dup of the loop's socket:

* a backup: after ``BACKUP_READY``, until the engine returns (the loop has
  stopped reading first, so it never reads what the client sends after
  it).  The engine's block iterator (:class:`_BackupStream`) reads one
  ``CHUNK_DATA`` frame each time the chunker asks for bytes;
* a restore: after ``RESTORE_META``, until its terminal item
  (:class:`_RestorePump` writes every ``CHUNK_DATA`` frame itself).

TCP's window is the flow control: a stream holds one frame of server
memory, and a client sending faster than the engine reads blocks in
``send``.  The loop takes the connection back to write ``BACKUP_DONE`` /
``RESTORE_END`` or a typed ``ERROR``.

Failure semantics: a backup whose session dies (disconnect, cancellation
during shutdown) shuts the leased socket down; the engine's read in flight
fails and the engine rolls the repository back
(:meth:`repro.repository.LocalRepository._guarded_backup`) — partially
streamed versions never become visible and leave no ``*.tmp`` litter.
"""

from __future__ import annotations

import asyncio
import os
import select
import socket
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
    encode_frame,
    encode_json,
    frame_parts,
)
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

#: Sentinel closing a restore pump's items: the stream ended whole.
_EOF = object()

#: Most buffers one ``sendmsg`` takes (a frame is its header plus its runs).
_IOV_MAX = os.sysconf("SC_IOV_MAX")


async def read_frame(reader: asyncio.StreamReader) -> Tuple[FrameType, bytes]:
    """Read exactly one validated frame from the stream."""
    header = await reader.readexactly(HEADER_SIZE)
    length, ftype = decode_header(header)
    payload = await reader.readexactly(length) if length else b""
    return ftype, payload


class _SocketLease:
    """An engine thread's hold on a connection's socket for one stream.

    The loop hands the thread a dup of the connection's socket
    (:meth:`attach`) once the transport has written its last frame; the
    thread owns the connection until it releases the dup.  The dup shares
    its file description, ``O_NONBLOCK`` included, with the loop's socket,
    so it stays non-blocking (making it blocking would make the loop's
    blocking too) and the thread waits for it with ``poll``.  :meth:`stop`
    aborts from the loop: it shuts the connection down, so a wait or call
    in flight fails at once.  :attr:`EVENTS` is what the thread waits for:
    ``POLLIN`` for a stream it reads, ``POLLOUT`` for one it writes.
    """

    EVENTS = 0

    def __init__(self) -> None:
        self._attached = threading.Event()
        self._lock = threading.Lock()  # the socket's close against stop()'s shutdown
        self._sock: Optional[socket.socket] = None
        self._poller = select.poll()
        self._stopped = False

    def attach(self, sock: socket.socket) -> None:
        """Loop-side: hand the thread the connection, the transport empty."""
        sock.setblocking(False)
        self._poller.register(sock, self.EVENTS)
        self._sock = sock
        self._attached.set()

    def stop(self) -> None:
        """Loop-side: shut the socket down; a parked or next call fails at once."""
        self._stopped = True
        self._attached.set()
        with self._lock:
            if self._sock is not None:
                try:
                    self._sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass  # the peer already tore it down

    def _wait_attached(self) -> None:
        """Thread-side: wait for the hand-over; raises if stopped first."""
        self._attached.wait()
        if self._stopped:  # after the hand-over, stop() shuts the socket
            raise ConnectionAbortedError("session aborted")

    def _release(self) -> None:
        """Thread-side: close the dup (the loop's socket stays open)."""
        with self._lock:
            if self._sock is not None:
                self._sock.close()
                self._sock = None

    def _send(self, buffers: list) -> None:
        """Write every buffer whole, in as few ``sendmsg`` calls as fit."""
        first = 0
        while first < len(buffers):
            try:
                sent = self._sock.sendmsg(buffers[first : first + _IOV_MAX])
            except BlockingIOError:
                self._poller.poll()  # writable, or shut down by stop(): then EPIPE
                continue
            except OSError as exc:  # half a frame may be out: never reuse it
                raise ConnectionAbortedError(f"stream send failed: {exc}") from exc
            while sent:  # resume a partial send from the exact byte
                head = len(buffers[first])
                if sent < head:
                    buffers[first] = memoryview(buffers[first])[sent:]
                    break
                sent -= head
                first += 1

    def _recv(self, size: int) -> bytearray:
        """Read exactly ``size`` bytes into a buffer of that size."""
        buffer = bytearray(size)
        view = memoryview(buffer)
        while view:
            try:
                got = self._sock.recv_into(view)
            except BlockingIOError:
                self._poller.poll()  # readable, or shut down by stop(): then EOF
                continue
            except OSError as exc:
                raise ConnectionAbortedError(f"stream read failed: {exc}") from exc
            if not got:
                raise ConnectionAbortedError("connection closed mid-stream")
            view = view[got:]
        return buffer


class _BackupStream(_SocketLease):
    """One backup's byte blocks, read off the leased socket by the engine.

    Iterating reads one ``CHUNK_DATA`` frame per block, on the engine's
    thread and only when the chunker asks for bytes, until ``BACKUP_END``
    (:attr:`ended`).  Any other frame is a :class:`ProtocolError`; a
    connection that closes or is stopped mid-stream raises
    ``ConnectionAbortedError`` into the engine, which rolls back.
    """

    EVENTS = select.POLLIN

    def __init__(self, metrics) -> None:
        super().__init__()
        self.metrics = metrics
        self.ended = False

    def __iter__(self):
        while True:
            length, ftype = decode_header(self._recv(HEADER_SIZE))
            payload = self._recv(length)
            if ftype == FrameType.BACKUP_END:
                self.ended = True
                return
            if ftype != FrameType.CHUNK_DATA:
                raise ProtocolError(f"unexpected {ftype.name} frame mid-backup")
            self.metrics.inc("server.ingest_bytes", length)
            yield payload


class _RestorePump(_SocketLease, threading.Thread):
    """One restore's engine thread: plan, read, assemble, frame, send.

    Runs the repository's restore iterator off the event loop and hands the
    loop the file plan.  After ``RESTORE_META`` the loop leases it the
    connection (:meth:`attach`), which the thread owns until its terminal
    item, writing every ``CHUNK_DATA`` frame itself: exactly
    ``RESTORE_BLOCK`` payload bytes cut from the runs (the last frame
    shorter), header and runs in one gather ``sendmsg``.  A restore holds
    one frame's runs; a full socket stalls the engine.  The terminal item
    (``_EOF`` or the exception that ended the stream) follows the close of
    the engine's stream and the socket: the thread has left the repository.
    """

    EVENTS = select.POLLOUT

    def __init__(self, loop: asyncio.AbstractEventLoop, open_restore) -> None:
        _SocketLease.__init__(self)
        threading.Thread.__init__(self, name="restore-pump", daemon=True)
        self._loop = loop
        self._open = open_restore
        self.queue: asyncio.Queue = asyncio.Queue()
        self.finished = False
        self.frames = self.sent = self.entries = 0
        self.send_seconds = self.wait_seconds = 0.0  # on the socket; on the engine

    def run(self) -> None:
        last: object = _EOF
        try:
            plan, data = self._open()
            try:
                self._loop.call_soon_threadsafe(self.queue.put_nowait, plan)
                self._wait_attached()
                self._frames(data)
                self.entries = data.entries
            finally:
                data.close()  # returns once the engine's reads in flight are done
        except BaseException as exc:  # forwarded: take() re-raises it on the loop
            last = exc
        self._release()
        try:
            self._loop.call_soon_threadsafe(self.queue.put_nowait, last)
        except RuntimeError:
            pass  # loop closed: the daemon was killed while we were in the engine

    def _frames(self, data) -> None:
        """Cut the runs into frames and send each as it fills."""
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
        self._send([encode_data_header(size), *frame])
        done = time.perf_counter()
        self.send_seconds += done - ready
        self.frames += 1
        self.sent += size
        return done

    async def _next(self) -> object:
        item = await self.queue.get()
        self.finished = item is _EOF or isinstance(item, BaseException)
        return item

    async def take(self) -> object:
        """Loop-side: the next item; raises whatever ended the stream early."""
        item = await self._next()
        if isinstance(item, BaseException):
            raise item
        return item

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
        hello = {"magic": MAGIC, "version": PROTOCOL_VERSION, "trace": self.trace}
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

    async def _lease(self, lease: _SocketLease, frame: bytes) -> None:
        """Write the loop's last frame before a stream, then lease the socket.

        ``drain()`` may return with up to the low-water mark still buffered
        in the transport; the lease starts only once that buffer is empty,
        so the loop's bytes and the engine thread's never interleave.
        """
        transport = self.writer.transport
        self.writer.write(frame)
        low, high = transport.get_write_buffer_limits()
        transport.set_write_buffer_limits(high=0)
        await self.writer.drain()
        transport.set_write_buffer_limits(high, low)
        lease.attach(self.writer.get_extra_info("socket").dup())

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
        # Vet the plan before any tenant, lock or stream: a traversal
        # attempt ('../x', absolute, control chars), a negative size or a
        # repeated name dies here with a typed ERROR.
        plan = validate_plan((str(rel), size) for rel, size in obj.get("files", []))
        handle = self.daemon.registry.get(obj.get("repo"), create=True)
        tag = str(obj.get("tag", "") or "")
        async with handle.writing():
            await self._run_backup(handle, plan, tag)

    async def _run_backup(self, handle: RepoHandle, plan: FilePlan, tag: str) -> None:
        # Stop the loop's reading before BACKUP_READY goes out: what the
        # client sends after it belongs to the engine thread.
        transport = self.writer.transport
        transport.pause_reading()
        if self.reader._buffer:  # read by the loop already: not ours to hand on
            raise ProtocolError("client sent data before BACKUP_READY")
        stream = _BackupStream(self.daemon.metrics)
        await self._lease(stream, encode_frame(FrameType.BACKUP_READY))
        engine_done = threading.Event()

        def _engine():
            # The event — not the asyncio task state — is the ground truth
            # for "the engine thread has stopped touching the repository":
            # cancelling a to_thread task only marks the future, the thread
            # runs on regardless.
            try:
                return handle.repository.backup_blocks(stream, plan, tag)
            finally:
                stream._release()
                engine_done.set()

        try:
            report = await asyncio.to_thread(_engine)
            if not stream.ended:
                raise ProtocolError("engine finished before BACKUP_END")
        except BaseException as first:
            # Shut the leased socket down: the engine's read in flight fails
            # and it unwinds into the repository rollback.  When shutdown()
            # cancels this session the thread runs on, so wait on its own
            # completion event, swallowing repeated cancellation: shutdown()
            # only returns once the repository is clean — committed or
            # rolled back, never mid-write.  One waiter, awaited to its end
            # however often this is cancelled: none is left pending when
            # the loop closes.
            stream.stop()
            if not engine_done.is_set():
                waiter = asyncio.ensure_future(asyncio.to_thread(engine_done.wait))
                while not waiter.done():
                    try:
                        await asyncio.shield(waiter)
                    except asyncio.CancelledError:
                        continue
                    except BaseException:
                        break
            handle.note_backup_failed()
            if isinstance(first, Exception) and not isinstance(first, ConnectionError):
                # Where the client's stream stopped is unknown: report the
                # failure, then hang up.  A client blocked sending sees its
                # send fail and reads this ERROR.
                await self._send_error(first)
                raise _EndSession() from first
            raise
        transport.resume_reading()
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
                # The daemon is going down with no patience left: stop the
                # thread (and the connection), do not wait out its read.
                pump.stop()
                raise
            except BaseException:
                # The read lock must outlive the engine thread: it leaves
                # the repository at once if parked on a full socket, else
                # after the read it is in.
                await pump.close()
                raise

    async def _send_restore(self, handle: RepoHandle, version: int, pump: _RestorePump) -> None:
        """Write ``RESTORE_META``, let the pump write the frames, then end."""
        metrics = self.daemon.metrics
        # Open-time failures (unknown version or file) surface here, before
        # any data, and leave as a typed ERROR frame.
        plan = await pump.take()
        files = [[rel, size] for rel, size in plan]
        meta = encode_json(FrameType.RESTORE_META, {"version": version, "files": files})
        await self._lease(pump, meta)
        await pump.take()  # the pump's connection until now; errors follow whole frames
        metrics.observe("restore.send_seconds", pump.send_seconds)
        metrics.observe("restore.pump_wait_seconds", pump.wait_seconds)
        metrics.inc("restore.frames", pump.frames)
        metrics.inc("server.restore_bytes", pump.sent)
        handle.note_restore(pump.sent)
        end = {"chunks": pump.entries, "bytes": pump.sent}
        await self._reply(FrameType.RESTORE_END, end, "restore")

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
                    try:
                        repos[repo_name] = await asyncio.to_thread(handle.stats)
                    except RepositoryNotFoundError:
                        continue  # a handle whose tenant holds nothing yet
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

