"""A local S3-style object server for tests, benchmarks and CI smoke jobs.

Implements exactly the dialect :class:`~repro.storage.object_store.
ObjectStoreBackend` speaks — ranged ``GET`` (``206``), conditional ``PUT``
(``If-None-Match: *`` → ``412`` on conflict), ``HEAD``, ``DELETE``,
prefix listing, and a ``?digest=1`` sha256 endpoint.  Objects live in an
in-process dict guarded by one lock; the HTTP layer is a
:class:`ThreadingHTTPServer`, so concurrent ranged GETs from the restore
reader pool are served concurrently (plus an optional per-request
``latency`` to model object-store round-trips — without it a loopback
GET is so cheap that parallelism wins nothing).

Every request is appended to a thread-safe **request log** (method, path,
range header, status, monotonic start/end timestamps) and optionally
mirrored to a JSONL file — CI uses that artifact to prove the restore
path really issued overlapping ranged GETs.

Run standalone via ``hidestore fake-s3 127.0.0.1:9000 --log s3.jsonl``.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qs, unquote, urlsplit

__all__ = ["FakeS3Server", "RequestRecord", "main"]


@dataclass
class RequestRecord:
    """One served HTTP request, for overlap analysis and CI artifacts."""

    method: str
    path: str
    range_header: Optional[str]
    status: int
    started: float
    finished: float

    def overlaps(self, other: "RequestRecord") -> bool:
        """Whether the two requests were in flight at the same time."""
        return self.started < other.finished and other.started < self.finished

    def to_json(self) -> dict:
        return {
            "method": self.method,
            "path": self.path,
            "range": self.range_header,
            "status": self.status,
            "started": round(self.started, 6),
            "finished": round(self.finished, 6),
        }


@dataclass
class _Store:
    """Shared mutable state behind the handler (one per server)."""

    objects: Dict[str, bytes] = field(default_factory=dict)
    lock: threading.Lock = field(default_factory=threading.Lock)
    log: List[RequestRecord] = field(default_factory=list)
    log_lock: threading.Lock = field(default_factory=threading.Lock)
    latency: float = 0.0
    log_path: Optional[str] = None
    log_file: Optional[object] = None


def _parse_range(header: str, size: int) -> Optional[Tuple[int, int]]:
    """``bytes=a-b`` → (start, end_exclusive), or ``None`` when unusable."""
    if not header.startswith("bytes="):
        return None
    spec = header[len("bytes=") :]
    if "," in spec:  # multipart ranges are out of dialect
        return None
    start_text, _, end_text = spec.partition("-")
    try:
        if start_text:
            start = int(start_text)
            end = int(end_text) + 1 if end_text else size
        elif end_text:  # suffix range: last N bytes
            start = max(0, size - int(end_text))
            end = size
        else:
            return None
    except ValueError:
        return None
    if start >= size:
        return (-1, -1)  # signal 416
    return start, min(end, size)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Headers and body go out in two writes: with Nagle's algorithm the
    # body of a small response waits on the client's delayed ACK (~40 ms).
    disable_nagle_algorithm = True
    store: _Store  # injected by FakeS3Server via subclassing

    # -- helpers -------------------------------------------------------
    def log_message(self, fmt: str, *args) -> None:  # silence stderr chatter
        pass

    def _respond(self, status: int, body: bytes = b"", headers: Optional[dict] = None) -> None:
        # Logged before any byte of the reply leaves: a client that has its
        # reply finds the request in the log.
        self._logged = RequestRecord(
            method=self.command,
            path=self.path,
            range_header=self.headers.get("Range"),
            status=status,
            started=self._started,
            finished=time.monotonic(),
        )
        with self.store.log_lock:
            self.store.log.append(self._logged)
        self.send_response(status)
        for key, value in (headers or {}).items():
            self.send_header(key, value)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if self.command != "HEAD" and body:
            self.wfile.write(body)

    def _key(self) -> str:
        return unquote(urlsplit(self.path).path).lstrip("/")

    def _query(self) -> dict:
        return parse_qs(urlsplit(self.path).query, keep_blank_values=True)

    def _body(self) -> bytes:
        length = int(self.headers.get("Content-Length", 0) or 0)
        return self.rfile.read(length) if length else b""

    def _serve(self) -> None:
        self._started = time.monotonic()
        self._logged: Optional[RequestRecord] = None
        store = self.store
        if store.latency:
            time.sleep(store.latency)
        try:
            self._dispatch()
        except BrokenPipeError:  # client went away mid-reply
            if self._logged is not None:
                self._logged.status = 499
        if store.log_file is not None and self._logged is not None:
            with store.log_lock:
                store.log_file.write(json.dumps(self._logged.to_json()) + "\n")
                store.log_file.flush()

    # -- dialect -------------------------------------------------------
    def _dispatch(self) -> None:
        store = self.store
        key = self._key()
        if self.command == "PUT":
            body = self._body()
            with store.lock:
                if self.headers.get("If-None-Match") == "*" and key in store.objects:
                    self._respond(412, b"precondition failed: object exists")
                    return
                store.objects[key] = body
            self._respond(201)
            return
        if self.command == "DELETE":
            with store.lock:
                missing = store.objects.pop(key, None) is None
            if missing:
                self._respond(404, b"no such object")
                return
            self._respond(204)
            return
        if self.command in ("GET", "HEAD"):
            query = self._query()
            if self.command == "GET" and "prefix" in query:
                # Bucket listing: GET /bucket?prefix=P → keys under the
                # bucket (bucket name stripped), newline-separated.
                prefix = query["prefix"][0]
                bucket_prefix = key.rstrip("/") + "/"
                with store.lock:
                    keys = sorted(
                        name[len(bucket_prefix) :]
                        for name in store.objects
                        if name.startswith(bucket_prefix)
                        and name[len(bucket_prefix) :].startswith(prefix)
                    )
                body = "\n".join(keys).encode("utf-8")
                self._respond(200, body, {"Content-Type": "text/plain"})
                return
            with store.lock:
                blob = store.objects.get(key)
            if blob is None:
                self._respond(404, b"no such object")
                return
            if "digest" in query:
                body = hashlib.sha256(blob).hexdigest().encode("ascii")
                self._respond(200, body, {"Content-Type": "text/plain"})
                return
            range_header = self.headers.get("Range")
            if range_header:
                span = _parse_range(range_header, len(blob))
                if span == (-1, -1):
                    self._respond(416, b"", {"Content-Range": f"bytes */{len(blob)}"})
                    return
                if span is not None:
                    start, end = span
                    headers = {
                        "Content-Range": f"bytes {start}-{end - 1}/{len(blob)}",
                        "Accept-Ranges": "bytes",
                    }
                    self._respond(206, blob[start:end], headers)
                    return
            self._respond(200, blob, {"Accept-Ranges": "bytes"})
            return
        self._respond(405, b"method not allowed")

    do_GET = do_HEAD = do_PUT = do_DELETE = _serve


class FakeS3Server:
    """An in-process threaded object server bound to ``host:port``.

    Args:
        host: bind address (default loopback).
        port: TCP port; ``0`` picks a free one (see :attr:`port` after start).
        latency: seconds of artificial delay per request, to model
            object-store round-trip time in benchmarks.
        log_path: optional JSONL file mirroring the request log.

    Usable as a context manager; ``request_log()`` snapshots served
    requests and ``max_concurrent_ranged_gets()`` reports how many ranged
    GETs were ever in flight simultaneously — the number CI asserts on.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        latency: float = 0.0,
        log_path: Optional[str] = None,
    ) -> None:
        self._store = _Store(latency=latency, log_path=log_path)
        handler = type("BoundHandler", (_Handler,), {"store": self._store})
        self._server = ThreadingHTTPServer((host, port), handler)
        self._server.daemon_threads = True
        self._thread: Optional[threading.Thread] = None
        self.host = host
        self.port = self._server.server_address[1]

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "FakeS3Server":
        if self._store.log_path:
            self._store.log_file = open(self._store.log_path, "a", encoding="utf-8")
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="fake-s3", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        if self._store.log_file is not None:
            self._store.log_file.close()
            self._store.log_file = None

    def __enter__(self) -> "FakeS3Server":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- inspection ----------------------------------------------------
    @property
    def latency(self) -> float:
        """Artificial per-request delay in seconds (mutable at runtime)."""
        return self._store.latency

    @latency.setter
    def latency(self, seconds: float) -> None:
        self._store.latency = seconds

    def url(self, bucket: str, prefix: str = "") -> str:
        """The ``s3://`` URL of a bucket (and optional prefix) on this server."""
        base = f"s3://{self.host}:{self.port}/{bucket}"
        return f"{base}/{prefix}" if prefix else base

    def object_count(self) -> int:
        with self._store.lock:
            return len(self._store.objects)

    def request_log(self) -> List[RequestRecord]:
        with self._store.log_lock:
            return list(self._store.log)

    def clear_log(self) -> None:
        with self._store.log_lock:
            self._store.log.clear()

    def ranged_get_records(self) -> List[RequestRecord]:
        return [
            record
            for record in self.request_log()
            if record.method == "GET" and record.range_header and record.status == 206
        ]

    def max_concurrent_ranged_gets(self) -> int:
        """Peak number of ranged GETs in flight at once (overlap count)."""
        events: List[Tuple[float, int]] = []
        for record in self.ranged_get_records():
            events.append((record.started, 1))
            events.append((record.finished, -1))
        peak = live = 0
        for _, delta in sorted(events):
            live += delta
            peak = max(peak, live)
        return peak


def main(argv: Optional[List[str]] = None) -> int:
    """``hidestore fake-s3 HOST:PORT [--latency-ms N] [--log PATH]``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="hidestore fake-s3",
        description="Run a local S3-style object server (testing/CI only).",
    )
    parser.add_argument("listen", help="bind address, HOST:PORT (e.g. 127.0.0.1:9000)")
    parser.add_argument(
        "--latency-ms",
        type=float,
        default=0.0,
        help="artificial per-request latency in milliseconds",
    )
    parser.add_argument("--log", default=None, help="append a JSONL request log to PATH")
    args = parser.parse_args(argv)
    host, _, port_text = args.listen.partition(":")
    server = FakeS3Server(
        host=host or "127.0.0.1",
        port=int(port_text or 0),
        latency=args.latency_ms / 1000.0,
        log_path=args.log,
    )
    server.start()
    print(f"fake-s3 listening on {server.host}:{server.port}", flush=True)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
