"""Blocking client for the backup daemon (:mod:`repro.server`).

:class:`RemoteRepository` mirrors the surface of
:class:`repro.repository.LocalRepository` — ``backup_tree`` /
``backup_blocks`` / ``restore`` / ``versions`` / ``stats`` /
``delete_oldest`` — so the CLI's command implementations drive a tenant on
a remote daemon exactly like a local directory.

Reliability model:

* every socket operation runs under a per-request timeout
  (:class:`~repro.errors.TimeoutExceededError` when exceeded);
* **idempotent** requests (``stats``, ``versions``, opening a restore)
  retry transparently on connection failures with bounded exponential
  backoff; mutating requests (``backup``, ``delete_oldest``) never retry —
  the caller decides;
* connections are pooled and reused across requests; a connection that saw
  an error is discarded, never reused.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from ..errors import (
    ProtocolError,
    RemoteError,
    ReproError,
    RetryBudgetExceededError,
    TimeoutExceededError,
)
from ..observability import EventLogger, MetricsRegistry, get_registry, new_trace_id
from ..repository import FilePlan, stream_blocks
from .protocol import (
    DATA_BLOCK,
    HEADER_SIZE,
    FrameDecoder,
    FrameType,
    check_hello,
    decode_header,
    decode_json,
    encode_frame,
    encode_json,
    frame_parts,
    hello_frame,
    iter_data_blocks,
    raise_remote_error,
)

Address = Union[str, Tuple[str, int]]

#: Cap on one exponential-backoff sleep between retries.
_MAX_BACKOFF = 2.0

_RECV_SIZE = 256 * 1024


def _valid_port(value: object, address: Address) -> int:
    try:
        port = int(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise ProtocolError(f"invalid server address {address!r}: bad port {value!r}") from None
    if not 0 <= port <= 65535:
        raise ProtocolError(f"invalid server address {address!r}: port {port} out of range")
    return port


def parse_address(address: Address) -> Tuple[str, int]:
    """Accept ``(host, port)`` or ``"host:port"`` (IPv6 in brackets)."""
    if isinstance(address, tuple):
        if len(address) != 2 or not address[0]:
            raise ProtocolError(f"invalid server address {address!r} (need (host, port))")
        return str(address[0]), _valid_port(address[1], address)
    text = address.strip()
    if text.startswith("["):  # [::1]:7777
        host, _, rest = text[1:].partition("]")
        if not rest.startswith(":"):
            raise ProtocolError(f"invalid server address {address!r}")
        return host, _valid_port(rest[1:], address)
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ProtocolError(f"invalid server address {address!r} (need HOST:PORT)")
    return host, _valid_port(port, address)


class Connection:
    """One handshaken socket + its frame decoder."""

    def __init__(self, address: Tuple[str, int], timeout: float) -> None:
        self.timeout = timeout
        try:
            self._sock = socket.create_connection(address, timeout=timeout)
        except socket.timeout as exc:
            raise TimeoutExceededError(f"connect to {address} timed out") from exc
        self._sock.settimeout(timeout)
        self._decoder = FrameDecoder()
        self._frames: List[Tuple[FrameType, bytes]] = []
        self.broken = False
        self.trace = ""
        self.seq = 0
        try:
            self.send(hello_frame())
            ftype, payload = self.recv_frame()
            if ftype == FrameType.ERROR:
                raise_remote_error(payload)
            if ftype != FrameType.HELLO_OK:
                raise ProtocolError(f"expected HELLO_OK, got {ftype.name}")
            hello = check_hello(payload)
            # The server's session trace ID: both sides derive identical
            # "<session>.<seq>" request IDs from it for log correlation.
            trace = hello.get("trace")
            self.trace = trace if isinstance(trace, str) else ""
        except BaseException:
            self.close()
            raise

    def next_trace(self) -> str:
        """The per-request trace ID for the next request on this connection."""
        self.seq += 1
        if self.trace:
            return f"{self.trace}.{self.seq}"
        return new_trace_id()  # pre-observability server: still tag our logs

    # ------------------------------------------------------------------
    def send(self, data: bytes) -> None:
        try:
            self._sock.sendall(data)
        except socket.timeout as exc:
            self.broken = True
            raise TimeoutExceededError("send timed out") from exc
        except OSError:
            self.broken = True
            raise

    def send_parts(self, parts) -> None:
        """Gather-send several buffers as one wire write (zero concat).

        The frame header and its payload go to ``socket.sendmsg`` as
        separate buffers — the kernel scatters them onto the wire without
        this side ever joining them.  Short writes resume from the exact
        byte the kernel accepted; platforms without ``sendmsg`` fall back
        to ``sendall`` per buffer (still no concatenation).
        """
        try:
            sendmsg = self._sock.sendmsg
        except AttributeError:  # pragma: no cover - exotic platform
            for part in parts:
                self.send(part)
            return
        views = [memoryview(part).cast("B") for part in parts if len(part)]
        try:
            while views:
                sent = sendmsg(views)
                while views and sent >= len(views[0]):
                    sent -= len(views[0])
                    views.pop(0)
                if sent and views:
                    views[0] = views[0][sent:]
        except socket.timeout as exc:
            self.broken = True
            raise TimeoutExceededError("send timed out") from exc
        except OSError:
            self.broken = True
            raise

    def _recv_into(self, view: memoryview) -> int:
        """One blocking read under the per-operation timeout (never 0 bytes)."""
        try:
            got = self._sock.recv_into(view)
        except socket.timeout as exc:
            self.broken = True
            raise TimeoutExceededError(
                f"no response within {self.timeout:.1f}s"
            ) from exc
        except OSError:
            self.broken = True
            raise
        if not got:
            self.broken = True
            raise RemoteError("server closed the connection")
        return got

    def _recv_exactly(self, size: int) -> bytearray:
        buffer = bytearray(size)
        view = memoryview(buffer)
        while len(view):
            view = view[self._recv_into(view):]
        return buffer

    def recv_frame(self) -> Tuple[FrameType, bytes]:
        """Block for the next complete frame (per-operation timeout).

        With nothing buffered — every frame of a healthy stream — the
        header is read on its own and the payload straight into a buffer
        of exactly its size: one copy out of the kernel, none after.  Bytes
        a ``sweep`` or ``pending_error`` drain already fed the decoder are
        finished through the decoder.
        """
        if not self._frames and not self._decoder.pending:
            length, ftype = decode_header(self._recv_exactly(HEADER_SIZE))
            if not length:
                return ftype, b""
            payload = self._recv_exactly(length)
            if ftype == FrameType.CHUNK_DATA:
                return ftype, memoryview(payload)
            return ftype, bytes(payload)
        while not self._frames:
            view = memoryview(bytearray(_RECV_SIZE))
            self._frames.extend(self._decoder.feed(bytes(view[: self._recv_into(view)])))
        return self._frames.pop(0)

    def pending_error(self) -> Optional[bytes]:
        """Drain readable bytes without blocking; return an ERROR payload.

        Used when a send fails mid-stream: the server very likely reported
        *why* before closing, and that diagnosis beats ``BrokenPipeError``.
        """
        try:
            self._sock.settimeout(0.2)
            while True:
                data = self._sock.recv(_RECV_SIZE)
                if not data:
                    break
                self._frames.extend(self._decoder.feed(data))
        except (OSError, ProtocolError):
            pass
        for ftype, payload in self._frames:
            if ftype == FrameType.ERROR:
                return payload
        return None

    def has_buffered(self) -> bool:
        """True if undrained frames/bytes remain from the last exchange."""
        return bool(self._frames) or self._decoder.pending > 0

    def sweep(self) -> None:
        """Pull any bytes already sitting in the kernel buffer, without blocking.

        Makes :meth:`has_buffered` authoritative before pool reuse: a stale
        frame the server wrote after our last read (e.g. a late CREDIT)
        becomes visible instead of poisoning the next request.
        """
        try:
            self._sock.settimeout(0.0)
            while True:
                data = self._sock.recv(_RECV_SIZE)
                if not data:
                    self.broken = True
                    return
                self._frames.extend(self._decoder.feed(data))
        except (BlockingIOError, socket.timeout):
            pass
        except (OSError, ProtocolError):
            self.broken = True
        finally:
            try:
                self._sock.settimeout(self.timeout)
            except OSError:
                self.broken = True

    def close(self) -> None:
        self.broken = True
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass


class ConnectionPool:
    """A small cache of idle handshaken connections to one daemon."""

    def __init__(
        self,
        address: Tuple[str, int],
        timeout: float,
        size: int = 2,
        metrics: Optional[MetricsRegistry] = None,
        events: Optional[EventLogger] = None,
    ) -> None:
        self.address = address
        self.timeout = timeout
        self.size = size
        self.metrics = metrics if metrics is not None else get_registry()
        self.events = events if events is not None else EventLogger()
        self._idle: List[Connection] = []
        self._lock = threading.Lock()

    def acquire(self) -> Connection:
        while True:
            with self._lock:
                if not self._idle:
                    break
                conn = self._idle.pop()
            # Drain-verify before reuse: a connection carrying leftover
            # frames (stale CREDIT after BACKUP_DONE) would answer the next
            # request with the wrong frame.  Discard, never repair.
            conn.sweep()
            if conn.broken or conn.has_buffered():
                self.metrics.inc("client.pooled_discards_total")
                conn.close()
                continue
            return conn
        started = time.perf_counter()
        conn = Connection(self.address, self.timeout)
        elapsed = time.perf_counter() - started
        self.metrics.observe("client.connect_seconds", elapsed)
        self.events.log(
            "client_connect",
            trace=conn.trace or None,
            address=f"{self.address[0]}:{self.address[1]}",
            duration_ms=round(elapsed * 1000, 3),
        )
        return conn

    def release(self, conn: Connection) -> None:
        """Return a connection; broken, dirty or surplus connections are closed."""
        if conn.broken or conn.has_buffered():
            if conn.has_buffered() and not conn.broken:
                self.metrics.inc("client.pooled_discards_total")
            conn.close()
            return
        with self._lock:
            if len(self._idle) < self.size:
                self._idle.append(conn)
                return
        conn.close()

    def close(self) -> None:
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()


class RemoteRepository:
    """A named tenant on a backup daemon, driven over the wire.

    Args:
        address: daemon address (``"host:port"`` or a tuple).
        repo: tenant (repository) name on the server.
        timeout: per-socket-operation deadline in seconds.
        retries: attempts for idempotent requests (1 = no retry).
        backoff: initial exponential-backoff delay between retries.
        retry_budget_seconds: total wall-clock one operation may spend
            across all its attempts and backoff sleeps (0 = unlimited).
            Exhaustion raises
            :class:`~repro.errors.RetryBudgetExceededError` and counts
            ``client.retry_budget_exhausted`` — ``retries`` bounds the
            attempts, this bounds the time, so a flapping daemon cannot
            absorb unbounded client retry spend.
        pool_size: idle connections kept for reuse.
        event_log: structured event sink for client-side spans (connect,
            credit stalls, retries); defaults to the no-op logger.
        metrics: registry for client-side latency histograms (defaults to
            the process registry).
        pool: an externally owned :class:`ConnectionPool` to use instead
            of creating one — the cluster router shares one pool per
            daemon address across every tenant it routes there; a shared
            pool is *not* closed by :meth:`close`.
    """

    def __init__(
        self,
        address: Address,
        repo: str,
        timeout: float = 30.0,
        retries: int = 3,
        backoff: float = 0.1,
        pool_size: int = 2,
        event_log: Optional[EventLogger] = None,
        metrics: Optional[MetricsRegistry] = None,
        pool: Optional[ConnectionPool] = None,
        retry_budget_seconds: float = 0.0,
    ) -> None:
        self.repo = repo
        self.retries = max(1, retries)
        self.backoff = backoff
        self.retry_budget_seconds = max(0.0, retry_budget_seconds)
        self.events = event_log if event_log is not None else EventLogger()
        self.metrics = metrics if metrics is not None else get_registry()
        self._owns_pool = pool is None
        self.pool = pool if pool is not None else ConnectionPool(
            parse_address(address), timeout, pool_size,
            metrics=self.metrics, events=self.events,
        )

    def close(self) -> None:
        if self._owns_pool:
            self.pool.close()

    def __enter__(self) -> "RemoteRepository":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Request plumbing
    # ------------------------------------------------------------------
    def _with_retries(self, operation):
        """Run an idempotent operation under its retry budget.

        Two independent bounds: ``retries`` caps the attempts, and
        ``retry_budget_seconds`` caps the total wall-clock the operation
        may consume (attempts + backoff sleeps).  Whichever runs out
        first ends the operation; budget exhaustion raises the typed
        :class:`RetryBudgetExceededError` so callers (and the cluster
        router's failover logic) can distinguish "out of patience" from
        "the server said no".
        """
        deadline = (
            time.monotonic() + self.retry_budget_seconds
            if self.retry_budget_seconds > 0
            else None
        )
        last: Optional[BaseException] = None
        for attempt in range(self.retries):
            if attempt:
                sleep = min(self.backoff * (2 ** (attempt - 1)), _MAX_BACKOFF)
                if deadline is not None and time.monotonic() + sleep >= deadline:
                    break  # sleeping would overrun the budget: stop now
                self.metrics.inc("client.retries_total")
                self.events.log(
                    "client_retry",
                    attempt=attempt + 1,
                    sleep_s=round(sleep, 3),
                    error=type(last).__name__ if last is not None else None,
                )
                time.sleep(sleep)
            try:
                return operation()
            except ReproError as exc:
                if isinstance(exc, (TimeoutExceededError, ProtocolError)):
                    last = exc  # transport trouble: worth another attempt
                    continue
                raise  # the server answered; retrying cannot change it
            except OSError as exc:
                last = exc
                continue
        else:
            # Attempts ran out (no budget break): the historical outcome.
            if isinstance(last, ReproError):
                raise last
            raise RemoteError(
                f"request failed after {self.retries} attempts: {last}"
            ) from last
        self.metrics.inc("client.retry_budget_exhausted")
        self.events.log(
            "client_retry_budget_exhausted",
            budget_s=self.retry_budget_seconds,
            error=type(last).__name__ if last is not None else None,
        )
        raise RetryBudgetExceededError(
            f"retry budget of {self.retry_budget_seconds:.1f}s exhausted: {last}"
        ) from last

    def _simple_request(self, ftype: FrameType, obj: dict, expect: FrameType, kind: str) -> dict:
        conn = self.pool.acquire()
        trace = conn.next_trace()
        started = time.perf_counter()
        try:
            conn.send(encode_json(ftype, dict(obj, trace=trace)))
            reply_type, payload = conn.recv_frame()
            if reply_type == FrameType.ERROR:
                raise_remote_error(payload)
            if reply_type != expect:
                raise ProtocolError(f"expected {expect.name}, got {reply_type.name}")
            reply = decode_json(payload)
        except BaseException as exc:
            conn.close()
            self.events.log(
                f"client_{kind}_error",
                trace=trace,
                repo=obj.get("repo"),
                duration_ms=round((time.perf_counter() - started) * 1000, 3),
                error=type(exc).__name__,
                message=str(exc),
            )
            raise
        finally:
            self.pool.release(conn)
        elapsed = time.perf_counter() - started
        self.metrics.observe(f"client.{kind}_seconds", elapsed)
        self.events.log(
            f"client_{kind}_end",
            trace=trace,
            repo=obj.get("repo"),
            duration_ms=round(elapsed * 1000, 3),
        )
        return reply

    # ------------------------------------------------------------------
    # Backup (mutating — never retried)
    # ------------------------------------------------------------------
    def backup_tree(self, entries: List[Tuple[str, str]], tag: str = "") -> Dict:
        """Stream files from disk ((rel, path) rows) to the daemon."""
        plan: FilePlan = [(rel, os.path.getsize(path)) for rel, path in entries]
        return self.backup_blocks(stream_blocks(entries), plan, tag)

    def backup_blocks(self, blocks: Iterable[bytes], plan: FilePlan, tag: str = "") -> Dict:
        """Stream one version's bytes under the server's credit window."""
        conn = self.pool.acquire()
        trace = conn.next_trace()
        self.events.log(
            "client_backup_begin", trace=trace, repo=self.repo, files=len(plan)
        )
        started = time.perf_counter()
        try:
            begin = {
                "repo": self.repo,
                "tag": tag or "",
                "files": [[rel, size] for rel, size in plan],
                "trace": trace,
            }
            conn.send(encode_json(FrameType.BACKUP_BEGIN, begin))
            credits = 0
            for block in iter_data_blocks(iter(blocks)):
                while credits <= 0:
                    credits += self._await_credit(conn, trace)
                try:
                    conn.send_parts(frame_parts(FrameType.CHUNK_DATA, block))
                except OSError as exc:
                    error = conn.pending_error()
                    if error is not None:
                        raise_remote_error(error)
                    raise RemoteError(f"connection lost mid-backup: {exc}") from exc
                credits -= 1
            conn.send(encode_frame(FrameType.BACKUP_END))
            while True:
                ftype, payload = conn.recv_frame()
                if ftype == FrameType.CREDIT:
                    continue
                if ftype == FrameType.ERROR:
                    raise_remote_error(payload)
                if ftype != FrameType.BACKUP_DONE:
                    raise ProtocolError(f"expected BACKUP_DONE, got {ftype.name}")
                report = decode_json(payload)
                break
        except BaseException as exc:
            conn.close()
            self.events.log(
                "client_backup_error",
                trace=trace,
                repo=self.repo,
                duration_ms=round((time.perf_counter() - started) * 1000, 3),
                error=type(exc).__name__,
                message=str(exc),
            )
            raise
        finally:
            self.pool.release(conn)
        elapsed = time.perf_counter() - started
        self.metrics.observe("client.backup_seconds", elapsed)
        self.events.log(
            "client_backup_end",
            trace=trace,
            repo=self.repo,
            duration_ms=round(elapsed * 1000, 3),
        )
        return report

    def _await_credit(self, conn: Connection, trace: str) -> int:
        started = time.perf_counter()
        ftype, payload = conn.recv_frame()
        stalled = time.perf_counter() - started
        self.metrics.observe("client.credit_stall_seconds", stalled)
        if stalled >= 0.001:  # only log stalls worth reading about
            self.events.log(
                "client_credit_stall",
                trace=trace,
                repo=self.repo,
                duration_ms=round(stalled * 1000, 3),
            )
        if ftype == FrameType.ERROR:
            raise_remote_error(payload)
        if ftype != FrameType.CREDIT:
            raise ProtocolError(f"expected CREDIT, got {ftype.name}")
        frames = decode_json(payload).get("frames", 0)
        if not isinstance(frames, int) or frames <= 0:
            raise ProtocolError("CREDIT must grant a positive frame count")
        return frames

    # ------------------------------------------------------------------
    # Restore (idempotent to open; streaming once opened)
    # ------------------------------------------------------------------
    def restore(
        self,
        version_id: int,
        *,
        workers: Optional[int] = None,
        readahead: Optional[int] = None,
        verify: bool = False,
        file: Optional[str] = None,
    ) -> Tuple[FilePlan, Iterator[bytes]]:
        """A version's file plan plus its reassembled byte stream.

        The keyword knobs mirror :meth:`LocalRepository.restore` and ride in
        the ``RESTORE_BEGIN`` payload: ``workers``/``readahead`` size the
        server's prefetching container-reader pool (the daemon clamps to its
        own cap; with no ``workers`` it restores serially, which is fastest
        unless container reads block on a slow backend), ``verify``
        re-hashes chunks server-side before they hit
        the wire, ``file`` restores a single manifest-relative file.  Old
        servers ignore unknown payload keys, so every combination degrades
        to a plain serial full restore.
        """

        def begin() -> Tuple[Connection, str, dict]:
            conn = self.pool.acquire()
            trace = conn.next_trace()
            request = {"repo": self.repo, "version": version_id, "trace": trace}
            if workers is not None:
                request["workers"] = int(workers)
            if readahead is not None:
                request["readahead"] = int(readahead)
            if verify:
                request["verify"] = True
            if file is not None:
                request["file"] = file
            try:
                conn.send(encode_json(FrameType.RESTORE_BEGIN, request))
                ftype, payload = conn.recv_frame()
                if ftype == FrameType.ERROR:
                    raise_remote_error(payload)
                if ftype != FrameType.RESTORE_META:
                    raise ProtocolError(f"expected RESTORE_META, got {ftype.name}")
                return conn, trace, decode_json(payload)
            except BaseException:
                conn.close()
                self.pool.release(conn)
                raise

        started = time.perf_counter()
        conn, trace, meta = self._with_retries(begin)
        plan: FilePlan = [(rel, size) for rel, size in meta.get("files", [])]
        self.events.log(
            "client_restore_begin",
            trace=trace,
            repo=self.repo,
            version=version_id,
            files=len(plan),
        )

        def data() -> Iterator[bytes]:
            received = 0
            try:
                while True:
                    ftype, payload = conn.recv_frame()
                    if ftype == FrameType.CHUNK_DATA:
                        received += len(payload)
                        yield payload
                    elif ftype == FrameType.RESTORE_END:
                        elapsed = time.perf_counter() - started
                        self.metrics.observe("client.restore_seconds", elapsed)
                        self.events.log(
                            "client_restore_end",
                            trace=trace,
                            repo=self.repo,
                            version=version_id,
                            bytes=received,
                            duration_ms=round(elapsed * 1000, 3),
                        )
                        return
                    elif ftype == FrameType.ERROR:
                        raise_remote_error(payload)
                    else:
                        raise ProtocolError(f"unexpected {ftype.name} during restore")
            except BaseException as exc:
                conn.close()
                self.events.log(
                    "client_restore_error",
                    trace=trace,
                    repo=self.repo,
                    version=version_id,
                    duration_ms=round((time.perf_counter() - started) * 1000, 3),
                    error=type(exc).__name__,
                    message=str(exc),
                )
                raise
            finally:
                self.pool.release(conn)

        return plan, data()

    # ------------------------------------------------------------------
    # Idempotent control requests (retried)
    # ------------------------------------------------------------------
    def versions(self) -> List[Dict]:
        reply = self._with_retries(
            lambda: self._simple_request(
                FrameType.VERSIONS, {"repo": self.repo}, FrameType.VERSIONS_OK, "versions"
            )
        )
        return list(reply.get("versions", []))

    def stats(self) -> Dict:
        return self._with_retries(
            lambda: self._simple_request(
                FrameType.STATS, {"repo": self.repo}, FrameType.STATS_OK, "stats"
            )
        )

    def server_stats(self) -> Dict:
        """Daemon-wide counters (every repo + service totals)."""
        return self._with_retries(
            lambda: self._simple_request(
                FrameType.STATS, {"repo": None}, FrameType.STATS_OK, "stats"
            )
        )

    def verify(self, deep: bool = False) -> Dict:
        """Server-side integrity verification of this tenant.

        Returns the report document (``ok``, ``seconds``,
        ``versions_checked``, ``entries_checked``, ``containers_checked``,
        ``issues``, ``summary``).  ``deep`` re-hashes every stored chunk
        payload on the server, on the one load each container gets.
        """
        return self._with_retries(
            lambda: self._simple_request(
                FrameType.VERIFY,
                {"repo": self.repo, "deep": bool(deep)},
                FrameType.VERIFY_OK,
                "verify",
            )
        )

    # ------------------------------------------------------------------
    # Cluster control plane
    # ------------------------------------------------------------------
    def cluster_map(self, offer: Optional[Dict] = None) -> Dict:
        """The daemon's cluster view: ``{"map": doc|None, "node": name|None}``.

        Pure read, retried.  A daemon running outside any cluster answers
        with ``map: null`` — callers treat that as "not clustered", not as
        an error.

        ``offer`` piggybacks gossip on the request: a clustered peer that
        attaches its own map document lets the receiving daemon adopt it
        if (and only if) it carries a strictly higher epoch.  This is how
        health probes double as map propagation — a promotion minted
        anywhere reaches every daemon the prober touches, and a rejoining
        stale daemon learns the newer epoch from its first probe.  The
        reply always carries the receiver's (possibly just-updated) map.
        """
        payload: Dict = {"repo": None}
        if offer is not None:
            payload["map"] = offer
        return self._with_retries(
            lambda: self._simple_request(
                FrameType.CLUSTER_MAP, payload, FrameType.CLUSTER_MAP_OK,
                "cluster_map",
            )
        )

    def cluster_sync(self, repo: Optional[str] = None) -> Dict:
        """Ask the daemon to replicate its primary-owned tenants to their
        ring successors (one tenant when ``repo`` is given, else all).

        Retried: each underlying sync is an idempotent O(delta) replication
        — re-running a completed sync ships nothing.
        """
        return self._with_retries(
            lambda: self._simple_request(
                FrameType.CLUSTER_SYNC, {"repo": repo}, FrameType.CLUSTER_SYNC_OK,
                "cluster_sync",
            )
        )

    def drop_tenant(self) -> Dict:
        """Remove this tenant's storage from the daemon (mutating — never
        retried).  Rebalance cleanup: send only after the tenant's new
        primary deep-verified its copy."""
        return self._simple_request(
            FrameType.TENANT_DROP, {"repo": self.repo}, FrameType.TENANT_DROP_OK,
            "tenant_drop",
        )

    # ------------------------------------------------------------------
    # Replication (idempotent by construction — retried)
    # ------------------------------------------------------------------
    # Every replication request is safe to retry: STATE and FETCH are pure
    # reads, PUT lands a content-addressed blob atomically (a resend
    # overwrites with identical bytes), and COMMIT's rename/delete lists
    # replay as no-ops on the server.

    def replicate_state(self) -> Dict:
        """The mirror tenant's replicable state + physical identity."""
        return self._with_retries(
            lambda: self._simple_request(
                FrameType.REPLICATE_STATE,
                {"repo": self.repo},
                FrameType.REPLICATE_STATE_OK,
                "replicate_state",
            )
        )

    def replicate_put(
        self, kind: str, name: str, blob: bytes, digest: str, staged: bool = False
    ) -> Dict:
        """Ship one repository object; the server validates size + digest."""

        def op() -> Dict:
            conn = self.pool.acquire()
            trace = conn.next_trace()
            try:
                header = {
                    "repo": self.repo,
                    "kind": kind,
                    "name": name,
                    "size": len(blob),
                    "digest": digest,
                    "staged": bool(staged),
                    "trace": trace,
                }
                view = memoryview(blob)
                sends = [
                    list(frame_parts(FrameType.CHUNK_DATA, view[offset : offset + DATA_BLOCK]))
                    for offset in range(0, len(blob), DATA_BLOCK)
                ] or [[]]
                # The announcement rides in the same wire write as the first
                # data frame: sent on its own, a body smaller than one
                # segment (a checkpoint head, a manifest) would sit behind
                # it in Nagle's buffer until the mirror's delayed ACK, ~40 ms
                # a put.
                sends[0].insert(0, encode_json(FrameType.REPLICATE_PUT, header))
                for parts in sends:
                    try:
                        conn.send_parts(parts)
                    except OSError as exc:
                        error = conn.pending_error()
                        if error is not None:
                            raise_remote_error(error)
                        raise RemoteError(f"connection lost mid-put: {exc}") from exc
                ftype, payload = conn.recv_frame()
                if ftype == FrameType.ERROR:
                    raise_remote_error(payload)
                if ftype != FrameType.REPLICATE_PUT_OK:
                    raise ProtocolError(f"expected REPLICATE_PUT_OK, got {ftype.name}")
                return decode_json(payload)
            except BaseException:
                conn.close()
                raise
            finally:
                self.pool.release(conn)

        started = time.perf_counter()
        reply = self._with_retries(op)
        self.metrics.observe("client.replicate_put_seconds", time.perf_counter() - started)
        self.metrics.inc("client.replicate_put_bytes", len(blob))
        return reply

    def replicate_commit(self, renames: List[List[str]], deletes: List[List[str]]) -> Dict:
        """Flip staged objects live and apply deletions on the mirror."""
        return self._with_retries(
            lambda: self._simple_request(
                FrameType.REPLICATE_COMMIT,
                {"repo": self.repo, "renames": renames, "deletes": deletes},
                FrameType.REPLICATE_COMMIT_OK,
                "replicate_commit",
            )
        )

    def replicate_fetch(self, kind: str, name: str) -> bytes:
        """Read one repository object back from the mirror (repair path)."""

        def op() -> bytes:
            conn = self.pool.acquire()
            trace = conn.next_trace()
            try:
                conn.send(
                    encode_json(
                        FrameType.REPLICATE_FETCH,
                        {"repo": self.repo, "kind": kind, "name": name, "trace": trace},
                    )
                )
                ftype, payload = conn.recv_frame()
                if ftype == FrameType.ERROR:
                    raise_remote_error(payload)
                if ftype != FrameType.REPLICATE_OBJECT:
                    raise ProtocolError(f"expected REPLICATE_OBJECT, got {ftype.name}")
                size = decode_json(payload).get("size")
                if not isinstance(size, int) or size < 0:
                    raise ProtocolError("REPLICATE_OBJECT must announce a size")
                parts: List[bytes] = []
                received = 0
                while received < size:
                    ftype, payload = conn.recv_frame()
                    if ftype == FrameType.ERROR:
                        raise_remote_error(payload)
                    if ftype != FrameType.CHUNK_DATA:
                        raise ProtocolError(f"unexpected {ftype.name} during fetch")
                    parts.append(payload)
                    received += len(payload)
                if received != size:
                    raise ProtocolError(
                        f"fetch overran its announced size ({received} > {size})"
                    )
                return b"".join(parts)
            except BaseException:
                conn.close()
                raise
            finally:
                self.pool.release(conn)

        return self._with_retries(op)

    # ------------------------------------------------------------------
    # Deletion (mutating — never retried)
    # ------------------------------------------------------------------
    def delete_oldest(self) -> Dict:
        return self._simple_request(
            FrameType.DELETE_OLDEST, {"repo": self.repo}, FrameType.DELETE_OK, "delete"
        )
