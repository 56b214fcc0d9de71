"""Blocking client for the backup daemon (:mod:`repro.server`).

:class:`RemoteRepository` keeps the :class:`repro.repository.Repository`
contract over the wire, so the CLI's command implementations drive a
tenant on a remote daemon exactly like a local directory.

Reliability model:

* every socket operation runs under a per-request timeout
  (:class:`~repro.errors.TimeoutExceededError` when exceeded);
* every request runs through one path, :meth:`RemoteRepository._request`
  (pooled connection, trace, latency histogram, end/error event);
* **idempotent** requests (``stats``, ``versions``, opening a restore)
  retry transparently on a :func:`~repro.client.retry.transport_failure`
  with bounded exponential backoff (:func:`~repro.client.retry.retry`);
  mutating requests (``backup``, ``delete_oldest``) never retry — the
  caller decides;
* connections are pooled and reused across requests; a connection that saw
  an error is discarded, never reused.
"""

from __future__ import annotations

import contextlib
import socket
import threading
import time
from itertools import chain
from typing import Dict, Iterable, Iterator, List, NoReturn, Optional, Tuple, Union

from ..errors import (
    ProtocolError,
    RemoteError,
    RetryBudgetExceededError,
    TimeoutExceededError,
)
from ..observability import EventLogger, MetricsRegistry, get_registry, new_trace_id
from ..repository import FilePlan, Repository, restore_workers
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
from .retry import backoff, retry

Address = Union[str, Tuple[str, int]]

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
    """One handshaken socket, read a frame at a time."""

    def __init__(self, address: Tuple[str, int], timeout: float) -> None:
        self.timeout = timeout
        try:
            self._sock = socket.create_connection(address, timeout=timeout)
        except socket.timeout as exc:
            raise TimeoutExceededError(f"connect to {address} timed out") from exc
        self._sock.settimeout(timeout)
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
        self.send_parts([data])

    def send_parts(self, parts) -> None:
        """Gather-send several buffers as one wire write (zero concat).

        The frame header and its payload go to ``socket.sendmsg`` as
        separate buffers — the kernel scatters them onto the wire without
        this side ever joining them.  Short writes resume from the exact
        byte the kernel accepted; platforms without ``sendmsg`` fall back
        to ``sendall`` per buffer (still no concatenation).
        """
        sendmsg = getattr(self._sock, "sendmsg", None)
        views = [memoryview(part).cast("B") for part in parts if len(part)]
        try:
            if sendmsg is None:  # pragma: no cover - exotic platform
                for view in views:
                    self._sock.sendall(view)
                return
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

        The header is read on its own and the payload straight into a
        buffer of exactly its size: one copy out of the kernel, none after.
        """
        length, ftype = decode_header(self._recv_exactly(HEADER_SIZE))
        if not length:
            return ftype, b""
        payload = self._recv_exactly(length)
        if ftype == FrameType.CHUNK_DATA:
            return ftype, memoryview(payload)
        return ftype, bytes(payload)

    def pending_error(self) -> Optional[bytes]:
        """Drain readable bytes without blocking; return an ERROR payload.

        Used when a send fails mid-stream (the connection is broken by
        then): the server very likely reported *why* before closing, and
        that diagnosis beats ``BrokenPipeError``.
        """
        decoder, frames = FrameDecoder(), []
        try:
            self._sock.settimeout(0.2)
            while True:
                data = self._sock.recv(_RECV_SIZE)
                if not data:
                    break
                frames.extend(decoder.feed(data))
        except (OSError, ProtocolError):
            pass
        for ftype, payload in frames:
            if ftype == FrameType.ERROR:
                return payload
        return None

    def sweep(self) -> None:
        """Mark the connection broken if anything is readable, without blocking.

        An idle connection fit for reuse has nothing to read: a stale frame
        the server wrote after our last read would answer the next request,
        and a close ends it.  Either way the pool discards it.
        """
        try:
            self._sock.settimeout(0.0)
            self._sock.recv(1)
            self.broken = True  # a stray byte, or the server's close
        except (BlockingIOError, socket.timeout):
            pass
        except OSError:
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
            # Verify before reuse: a connection carrying a leftover frame
            # (anything after a request's reply) would answer the next
            # request with the wrong frame.  Discard, never repair.
            conn.sweep()
            if conn.broken:
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
        """Return a connection; broken or surplus connections are closed."""
        if conn.broken:
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


class RemoteRepository(Repository):
    """A named tenant on a backup daemon, driven over the wire.

    Args:
        address: daemon address (``"host:port"`` or a tuple).
        repo: tenant (repository) name on the server.
        timeout: per-socket-operation deadline in seconds.
        retries: attempts for idempotent requests (1 = no retry), paced by
            :func:`~repro.client.retry.backoff`.
        retry_budget_seconds: total wall-clock one operation may spend
            across all its attempts and backoff sleeps (0 = unlimited).
            Exhaustion raises
            :class:`~repro.errors.RetryBudgetExceededError` and counts
            ``client.retry_budget_exhausted`` — ``retries`` bounds the
            attempts, this bounds the time, so a flapping daemon cannot
            absorb unbounded client retry spend.
        pool_size: idle connections kept for reuse.
        event_log: structured event sink for client-side spans (connect,
            requests, retries); defaults to the no-op logger.
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
        pool_size: int = 2,
        event_log: Optional[EventLogger] = None,
        metrics: Optional[MetricsRegistry] = None,
        pool: Optional[ConnectionPool] = None,
        retry_budget_seconds: float = 0.0,
    ) -> None:
        self.repo = repo
        self.retries = max(1, retries)
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

    # ------------------------------------------------------------------
    # Request plumbing
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def _request(
        self, kind: str, repo: Optional[str], **fields
    ) -> Iterator[Tuple[Connection, Dict]]:
        """The one request path: everything around one request's frames.

        Takes a pooled connection and mints the request's
        ``<session>.<seq>`` trace, as the daemon's ``_Session._dispatch``
        does on its side; the body sends ``span["trace"]`` in its opening
        frame and may add fields to ``span`` for the end event.  A body
        that returns observes ``client.{kind}_seconds`` and logs
        ``client_{kind}_end``; one that raises (or a stream its consumer
        abandons) logs ``client_{kind}_error`` and closes the connection.
        Either way the connection goes back to the pool, which keeps only
        a clean one.
        """
        conn = self.pool.acquire()
        span = dict(trace=conn.next_trace(), repo=repo, **fields)
        started = time.perf_counter()
        try:
            yield conn, span
        except BaseException as exc:
            conn.close()
            self.events.log(
                f"client_{kind}_error",
                **span,
                duration_ms=round((time.perf_counter() - started) * 1000, 3),
                error=type(exc).__name__,
                message=str(exc),
            )
            raise
        else:
            elapsed = time.perf_counter() - started
            self.metrics.observe(f"client.{kind}_seconds", elapsed)
            self.events.log(
                f"client_{kind}_end", **span, duration_ms=round(elapsed * 1000, 3)
            )
        finally:
            self.pool.release(conn)

    def _with_retries(self, operation):
        """Run an idempotent operation under its retry budget.

        Two independent bounds: ``retries`` caps the attempts, and
        ``retry_budget_seconds`` caps the total wall-clock the operation
        may consume (attempts + backoff sleeps).  Only a
        :func:`~repro.client.retry.transport_failure` is tried again.
        Whichever bound runs out first ends the operation: the attempts
        cap raises the last failure (a bare ``OSError`` as
        :class:`RemoteError`), the budget the typed
        :class:`RetryBudgetExceededError`, so callers (and the cluster
        router's failover logic) can distinguish "out of patience" from
        "the server said no".
        """

        def note_retry(number: int, pause: float, last: BaseException) -> None:
            self.metrics.inc("client.retries_total")
            self.events.log(
                "client_retry",
                attempt=number,
                sleep_s=round(pause, 3),
                error=type(last).__name__,
            )

        def budget_spent(last: Optional[BaseException]) -> NoReturn:
            self.metrics.inc("client.retry_budget_exhausted")
            self.events.log(
                "client_retry_budget_exhausted",
                budget_s=self.retry_budget_seconds,
                error=type(last).__name__ if last is not None else None,
            )
            raise RetryBudgetExceededError(
                f"retry budget of {self.retry_budget_seconds:.1f}s exhausted: {last}"
            ) from last

        try:
            return retry(
                operation,
                backoff(self.retries),
                timeout=self.retry_budget_seconds or None,
                expired=budget_spent,
                on_retry=note_retry,
            )
        except OSError as exc:
            raise RemoteError(
                f"request failed after {self.retries} attempts: {exc}"
            ) from exc

    def _simple_request(
        self, ftype: FrameType, obj: dict, expect: FrameType, kind: str,
        retried: bool = True,
    ) -> dict:
        """One JSON request, one JSON reply; retried unless it mutates."""

        def ask() -> dict:
            with self._request(kind, obj.get("repo")) as (conn, span):
                conn.send(encode_json(ftype, dict(obj, trace=span["trace"])))
                return decode_json(self._expect(conn, expect))

        return self._with_retries(ask) if retried else ask()

    @staticmethod
    def _send_all(conn: Connection, sends: Iterable[List], what: str) -> None:
        """Gather-send each buffer list of ``sends``.  A send that fails
        raises the typed ``ERROR`` the daemon wrote before it hung up, or
        a :class:`RemoteError` when it wrote none."""
        try:
            for parts in sends:
                conn.send_parts(parts)
        except OSError as exc:
            error = conn.pending_error()
            if error is not None:
                raise_remote_error(error)
            raise RemoteError(f"connection lost mid-{what}: {exc}") from exc

    @staticmethod
    def _expect(conn: Connection, expect: FrameType) -> bytes:
        """The next frame's payload; an ERROR re-raises its type."""
        ftype, payload = conn.recv_frame()
        if ftype == FrameType.ERROR:
            raise_remote_error(payload)
        if ftype != expect:
            raise ProtocolError(f"expected {expect.name}, got {ftype.name}")
        return payload

    # ------------------------------------------------------------------
    # Backup (mutating — never retried)
    # ------------------------------------------------------------------
    def backup_blocks(self, blocks: Iterable[bytes], plan: FilePlan, tag: str = "") -> Dict:
        """Stream one version's bytes once the daemon says ``BACKUP_READY``.

        The daemon reads a frame when its engine wants one, so a fast
        source blocks in ``send`` on a full TCP window — the only flow
        control there is.  A send that fails mid-stream reads the typed
        ``ERROR`` the daemon wrote before it hung up.
        """
        with self._request("backup", self.repo) as (conn, span):
            self.events.log(
                "client_backup_begin", trace=span["trace"], repo=self.repo, files=len(plan)
            )
            begin = {
                "repo": self.repo,
                "tag": tag or "",
                "files": [[rel, size] for rel, size in plan],
                "trace": span["trace"],
            }
            conn.send(encode_json(FrameType.BACKUP_BEGIN, begin))
            self._expect(conn, FrameType.BACKUP_READY)
            frames = (
                frame_parts(FrameType.CHUNK_DATA, block)
                for block in iter_data_blocks(iter(blocks))
            )
            self._send_all(conn, chain(frames, [[encode_frame(FrameType.BACKUP_END)]]), "backup")
            return decode_json(self._expect(conn, FrameType.BACKUP_DONE))

    # ------------------------------------------------------------------
    # Restore (idempotent to open; streaming once opened)
    # ------------------------------------------------------------------
    def restore(
        self,
        version_id: int,
        *,
        workers: Optional[int] = None,
        verify: bool = False,
        file: Optional[str] = None,
    ) -> Tuple[FilePlan, Iterator[bytes]]:
        """A version's file plan plus its reassembled byte stream.

        The keyword knobs mirror :meth:`LocalRepository.restore` and ride in
        the ``RESTORE_BEGIN`` payload: ``workers`` sizes the
        server's prefetching container-reader pool (the daemon clamps to its
        own cap; with no ``workers`` it restores serially, which is fastest
        unless container reads block on a slow backend), ``verify``
        re-hashes chunks server-side before they hit
        the wire, ``file`` restores a single manifest-relative file.  Old
        servers ignore unknown payload keys, so every combination degrades
        to a plain serial full restore.  ``workers`` below 1 raises
        :class:`~repro.errors.RestoreError` before anything is sent.
        """
        restore_workers(workers)
        request: Dict = {"repo": self.repo, "version": version_id}
        if workers is not None:
            request["workers"] = int(workers)
        if verify:
            request["verify"] = True
        if file is not None:
            request["file"] = file

        def stream() -> Iterator:
            """The plan first, then the payloads; one request throughout."""
            with self._request("restore", self.repo, version=version_id) as (conn, span):
                conn.send(encode_json(FrameType.RESTORE_BEGIN, dict(request, trace=span["trace"])))
                meta = decode_json(self._expect(conn, FrameType.RESTORE_META))
                plan: FilePlan = [(rel, size) for rel, size in meta.get("files", [])]
                self.events.log(
                    "client_restore_begin",
                    trace=span["trace"],
                    repo=self.repo,
                    version=version_id,
                    files=len(plan),
                )
                yield plan
                received = 0
                while True:
                    ftype, payload = conn.recv_frame()
                    if ftype == FrameType.CHUNK_DATA:
                        received += len(payload)
                        yield payload
                    elif ftype == FrameType.RESTORE_END:
                        span["bytes"] = received
                        return
                    elif ftype == FrameType.ERROR:
                        raise_remote_error(payload)
                    else:
                        raise ProtocolError(f"unexpected {ftype.name} during restore")

        def begin() -> Tuple[FilePlan, Iterator[bytes]]:
            data = stream()
            return next(data), data

        return self._with_retries(begin)

    # ------------------------------------------------------------------
    # Idempotent control requests (retried)
    # ------------------------------------------------------------------
    def versions(self) -> List[Dict]:
        reply = self._simple_request(
            FrameType.VERSIONS, {"repo": self.repo}, FrameType.VERSIONS_OK, "versions"
        )
        return list(reply.get("versions", []))

    def stats(self) -> Dict:
        return self._simple_request(
            FrameType.STATS, {"repo": self.repo}, FrameType.STATS_OK, "stats"
        )

    def server_stats(self) -> Dict:
        """Daemon-wide counters (every repo + service totals)."""
        return self._simple_request(
            FrameType.STATS, {"repo": None}, FrameType.STATS_OK, "stats"
        )

    def verify(self, deep: bool = False) -> Dict:
        """Server-side integrity verification of this tenant.

        Returns the report document (``ok``, ``seconds``,
        ``versions_checked``, ``entries_checked``, ``containers_checked``,
        ``issues``, ``summary``).  ``deep`` re-hashes every stored chunk
        payload on the server, on the one load each container gets.
        """
        return self._simple_request(
            FrameType.VERIFY,
            {"repo": self.repo, "deep": bool(deep)},
            FrameType.VERIFY_OK,
            "verify",
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
        return self._simple_request(
            FrameType.CLUSTER_MAP, payload, FrameType.CLUSTER_MAP_OK, "cluster_map"
        )

    def cluster_sync(self, repo: Optional[str] = None) -> Dict:
        """Ask the daemon to replicate its primary-owned tenants to their
        ring successors (one tenant when ``repo`` is given, else all).

        Retried: each underlying sync is an idempotent O(delta) replication
        — re-running a completed sync ships nothing.
        """
        return self._simple_request(
            FrameType.CLUSTER_SYNC, {"repo": repo}, FrameType.CLUSTER_SYNC_OK,
            "cluster_sync",
        )

    def drop_tenant(self) -> Dict:
        """Remove this tenant's storage from the daemon (mutating — never
        retried).  Rebalance cleanup: send only after the tenant's new
        primary deep-verified its copy."""
        return self._simple_request(
            FrameType.TENANT_DROP, {"repo": self.repo}, FrameType.TENANT_DROP_OK,
            "tenant_drop", retried=False,
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
        return self._simple_request(
            FrameType.REPLICATE_STATE,
            {"repo": self.repo},
            FrameType.REPLICATE_STATE_OK,
            "replicate_state",
        )

    def replicate_put(
        self, kind: str, name: str, blob: bytes, digest: str, staged: bool = False
    ) -> Dict:
        """Ship one repository object; the server validates size + digest."""
        header = {
            "repo": self.repo,
            "kind": kind,
            "name": name,
            "size": len(blob),
            "digest": digest,
            "staged": bool(staged),
        }
        view = memoryview(blob)

        def put() -> Dict:
            with self._request("replicate_put", self.repo) as (conn, span):
                sends = [
                    list(frame_parts(FrameType.CHUNK_DATA, view[offset : offset + DATA_BLOCK]))
                    for offset in range(0, len(blob), DATA_BLOCK)
                ] or [[]]
                # The announcement rides in the same wire write as the first
                # data frame: sent on its own, a body smaller than one
                # segment (a checkpoint head, a manifest) would sit behind
                # it in Nagle's buffer until the mirror's delayed ACK, ~40 ms
                # a put.
                sends[0].insert(
                    0, encode_json(FrameType.REPLICATE_PUT, dict(header, trace=span["trace"]))
                )
                self._send_all(conn, sends, "put")
                return decode_json(self._expect(conn, FrameType.REPLICATE_PUT_OK))

        reply = self._with_retries(put)
        self.metrics.inc("client.replicate_put_bytes", len(blob))
        return reply

    def replicate_commit(self, renames: List[List[str]], deletes: List[List[str]]) -> Dict:
        """Flip staged objects live and apply deletions on the mirror."""
        return self._simple_request(
            FrameType.REPLICATE_COMMIT,
            {"repo": self.repo, "renames": renames, "deletes": deletes},
            FrameType.REPLICATE_COMMIT_OK,
            "replicate_commit",
        )

    def replicate_fetch(self, kind: str, name: str) -> bytes:
        """Read one repository object back from the mirror (repair path)."""

        def fetch() -> bytes:
            with self._request("replicate_fetch", self.repo) as (conn, span):
                conn.send(
                    encode_json(
                        FrameType.REPLICATE_FETCH,
                        {"repo": self.repo, "kind": kind, "name": name, "trace": span["trace"]},
                    )
                )
                size = decode_json(self._expect(conn, FrameType.REPLICATE_OBJECT)).get("size")
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

        return self._with_retries(fetch)

    # ------------------------------------------------------------------
    # Deletion (mutating — never retried)
    # ------------------------------------------------------------------
    def delete_oldest(self) -> Dict:
        return self._simple_request(
            FrameType.DELETE_OLDEST, {"repo": self.repo}, FrameType.DELETE_OK, "delete",
            retried=False,
        )
