"""S3-style object-store backend: ranged GETs over a minimal HTTP dialect.

``s3://HOST:PORT/BUCKET[/PREFIX]`` names a bucket (and optional key
prefix) on an S3-compatible endpoint speaking the small dialect the
local :class:`~repro.storage.fake_s3.FakeS3Server` implements:

* ``GET /bucket/key`` — object bytes; with a ``Range: bytes=a-b`` header
  a ``206 Partial Content`` slice (this is what feeds the prefetching
  restore reader pool with **parallel ranged GETs**);
* ``PUT /bucket/key`` — store; with ``If-None-Match: *`` the server
  answers ``412`` when the key exists (immutable-put enforcement for
  sealed containers, §4.2);
* ``HEAD /bucket/key`` — existence + ``Content-Length``;
* ``GET /bucket/key?digest=1`` — hex sha256 without shipping the bytes;
* ``DELETE /bucket/key``;
* ``GET /bucket?prefix=P`` — newline-separated key listing.

Connections are kept alive **per thread** so the reader pool's N worker
threads hold N sockets and their ranged GETs genuinely overlap — one
shared connection would serialise them and the restore-throughput
scaling the bench asserts (≥1.3× at 4 workers) would vanish.

No boto3, no TLS, no auth: this is the locality middleware's placement
seam, not a cloud SDK.  Anything speaking this dialect (including a real
S3 gateway with a thin shim) can hold the cold tier.
"""

from __future__ import annotations

import hashlib
import http.client
import socket
import threading
from typing import List, Optional, Tuple
from urllib.parse import quote, unquote

from ..errors import ObjectMissingError, StorageError
from .backend import validate_object_name

__all__ = ["ObjectStoreBackend", "parse_object_store_url"]


def parse_object_store_url(url: str) -> Tuple[str, int, str, str]:
    """Split ``s3://host:port/bucket[/prefix]`` → (host, port, bucket, prefix)."""
    if not url.startswith("s3://"):
        raise StorageError(f"not an object-store URL: {url!r}")
    rest = url[len("s3://") :]
    endpoint, _, keyspace = rest.partition("/")
    host, _, port_text = endpoint.partition(":")
    if not host or not port_text:
        raise StorageError(
            f"object-store URL {url!r} must name host:port (e.g. s3://127.0.0.1:9000/bucket)"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise StorageError(f"bad port in object-store URL {url!r}") from None
    keyspace = unquote(keyspace).strip("/")
    if not keyspace:
        raise StorageError(f"object-store URL {url!r} must name a bucket")
    bucket, _, prefix = keyspace.partition("/")
    return host, port, bucket, prefix


class ObjectStoreBackend:
    """HTTP client for the S3-style dialect (see module docstring).

    Thread-safe: each thread gets its own persistent
    :class:`http.client.HTTPConnection`, so parallel readers issue
    concurrent ranged GETs without serialising on a shared socket.
    """

    prefers_ranged_reads = True

    def __init__(self, url: str, timeout: float = 30.0) -> None:
        self.host, self.port, self.bucket, self.prefix = parse_object_store_url(url)
        self.url = f"s3://{self.host}:{self.port}/{self.bucket}" + (
            f"/{self.prefix}" if self.prefix else ""
        )
        self.timeout = timeout
        self._local = threading.local()
        self._conns: List[http.client.HTTPConnection] = []
        self._conns_lock = threading.Lock()

    # -- plumbing ------------------------------------------------------
    def _key(self, name: str) -> str:
        validate_object_name(name)
        key = f"{self.prefix}/{name}" if self.prefix else name
        return quote(f"/{self.bucket}/{key}", safe="/")

    def _conn(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
            self._local.conn = conn
            with self._conns_lock:
                self._conns.append(conn)
        return conn

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        headers: Optional[dict] = None,
    ) -> Tuple[int, bytes, dict]:
        conn = self._conn()
        for attempt in (0, 1):  # one retry on a dropped keep-alive socket
            try:
                conn.request(method, path, body=body, headers=headers or {})
                response = conn.getresponse()
                payload = response.read()
                return response.status, payload, dict(response.getheaders())
            except (http.client.HTTPException, ConnectionError, socket.timeout, OSError):
                conn.close()
                if attempt:
                    raise
        raise StorageError("unreachable")  # pragma: no cover

    def _raise_for(self, status: int, name: str, payload: bytes) -> None:
        if status == 404:
            raise ObjectMissingError(f"no object {name!r} in {self.url}")
        detail = payload[:200].decode("utf-8", "replace")
        raise StorageError(f"object store {self.url}: HTTP {status} for {name!r}: {detail}")

    # -- protocol ------------------------------------------------------
    def put(self, name: str, blob: bytes) -> None:
        status, payload, _ = self._request(
            "PUT", self._key(name), body=blob, headers={"If-None-Match": "*"}
        )
        if status == 412:
            raise StorageError(f"immutable object {name!r} already stored")
        if status not in (200, 201, 204):
            self._raise_for(status, name, payload)

    def put_meta(self, name: str, blob: bytes) -> None:
        status, payload, _ = self._request("PUT", self._key(name), body=blob)
        if status not in (200, 201, 204):
            self._raise_for(status, name, payload)

    def get(self, name: str) -> bytes:
        status, payload, _ = self._request("GET", self._key(name))
        if status != 200:
            self._raise_for(status, name, payload)
        return payload

    view = get

    def get_range(self, name: str, offset: int, length: int) -> bytes:
        if length <= 0:
            return b""
        headers = {"Range": f"bytes={offset}-{offset + length - 1}"}
        status, payload, _ = self._request("GET", self._key(name), headers=headers)
        if status == 206:
            return payload
        if status == 200:  # server ignored the Range header; slice locally
            return payload[offset : offset + length]
        if status == 416:  # range entirely past EOF — mirror file semantics
            return b""
        self._raise_for(status, name, payload)
        raise StorageError("unreachable")  # pragma: no cover

    def exists(self, name: str) -> bool:
        status, _, _ = self._request("HEAD", self._key(name))
        if status == 200:
            return True
        if status == 404:
            return False
        raise StorageError(f"object store {self.url}: HTTP {status} for HEAD {name!r}")

    def size(self, name: str) -> int:
        status, _, headers = self._request("HEAD", self._key(name))
        if status != 200:
            if status == 404:
                raise ObjectMissingError(f"no object {name!r} in {self.url}")
            raise StorageError(f"object store {self.url}: HTTP {status} for HEAD {name!r}")
        try:
            return int(headers.get("Content-Length", ""))
        except ValueError:
            raise StorageError(
                f"object store {self.url}: missing Content-Length for {name!r}"
            ) from None

    def digest(self, name: str) -> str:
        status, payload, _ = self._request("GET", self._key(name) + "?digest=1")
        if status == 200:
            text = payload.decode("ascii", "replace").strip()
            if len(text) == 64:
                return text
        if status == 404:
            raise ObjectMissingError(f"no object {name!r} in {self.url}")
        # Endpoint without digest support: fall back to hashing the bytes.
        return hashlib.sha256(self.get(name)).hexdigest()

    def delete(self, name: str) -> None:
        status, payload, _ = self._request("DELETE", self._key(name))
        if status not in (200, 204):
            self._raise_for(status, name, payload)

    def list(self, prefix: str = "") -> List[str]:
        full = f"{self.prefix}/{prefix}" if self.prefix else prefix
        path = quote(f"/{self.bucket}", safe="/") + "?prefix=" + quote(full, safe="")
        status, payload, _ = self._request("GET", path)
        if status == 404:
            return []
        if status != 200:
            raise StorageError(f"object store {self.url}: HTTP {status} for list")
        keys = [line for line in payload.decode("utf-8").splitlines() if line]
        if self.prefix:
            strip = self.prefix + "/"
            keys = [key[len(strip) :] for key in keys if key.startswith(strip)]
        return sorted(keys)

    def rename(self, name: str, new_name: str) -> None:
        blob = self.get(name)
        self.put_meta(new_name, blob)
        self.delete(name)

    def sweep_tmp(self, prefix: str = "") -> None:  # PUTs are atomic server-side
        pass

    def close(self) -> None:
        with self._conns_lock:
            conns, self._conns = self._conns, []
        for conn in conns:
            try:
                conn.close()
            except Exception:  # pragma: no cover - best-effort teardown
                pass
