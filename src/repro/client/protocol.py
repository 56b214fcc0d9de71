"""The backup service wire protocol: length-prefixed, versioned frames.

Shared, sans-network codec — both the asyncio daemon and the blocking
client encode/decode through this module, so the two sides can never
disagree about the framing.

Frame layout (little-endian)::

    +----------------+-----------+------------------+
    | payload length | frame type| payload          |
    |   4 bytes (u32)| 1 byte    | length bytes     |
    +----------------+-----------+------------------+

Control frames carry a UTF-8 JSON object; ``CHUNK_DATA`` frames carry raw
backup bytes.  A conversation opens with ``HELLO``/``HELLO_OK`` version
negotiation.  Ingest answers ``BACKUP_BEGIN`` with ``BACKUP_READY``, then
reads ``CHUNK_DATA``\\ * → ``BACKUP_END`` and replies ``BACKUP_DONE``;
restores stream ``RESTORE_META`` → ``CHUNK_DATA``\\ * → ``RESTORE_END``.
Replication ships repository objects to a mirror daemon
(``REPLICATE_STATE`` / ``REPLICATE_PUT`` / ``REPLICATE_COMMIT``) and reads
them back for repair (``REPLICATE_FETCH``); object bodies stream as
``CHUNK_DATA`` frames totalling the announced size.  Cluster deployments
add ``CLUSTER_MAP`` (fetch the daemon's versioned membership document),
``CLUSTER_SYNC`` (ask a primary to replicate its owned tenants to their
ring successors) and ``TENANT_DROP`` (rebalance cleanup).
Failures travel as ``ERROR`` frames carrying the :class:`ReproError`
taxonomy by class name, so the client re-raises the exact exception type
the server hit (:func:`repro.errors.error_by_name`).

One flow-control rule covers every ``CHUNK_DATA`` stream (backup, restore,
``REPLICATE_PUT``): TCP's window.  A receiver reads a frame when it can use
one, so a sender that outruns it blocks in ``send``; no frame acknowledges
data.  On the daemon one engine thread owns the connection for the length
of a backup or restore stream, reading a backup's frames as the chunker
asks for bytes and writing a restore's as they fill, so a stream holds one
frame of server memory.  Between ``BACKUP_BEGIN`` and ``BACKUP_DONE`` or
``ERROR`` the daemon sends exactly one frame, ``BACKUP_READY``, and a
client sends no data before it arrives.
"""

from __future__ import annotations

import json
import struct
from enum import IntEnum
from typing import Iterator, List, Optional, Tuple

from ..errors import ProtocolError, ReproError, error_by_name

#: Bump when the frame vocabulary changes incompatibly.
PROTOCOL_VERSION = 2

#: Handshake magic carried inside HELLO (guards against foreign clients).
MAGIC = "HDSP"

#: Hard ceiling on a single frame's payload (wire-sanity guard).
MAX_PAYLOAD = 32 * 1024 * 1024

#: Preferred payload size for CHUNK_DATA frames on ingest and replication
#: (streaming granularity: a backup's daemon holds one such frame at a time).
DATA_BLOCK = 256 * 1024

#: CHUNK_DATA payload of every restore frame but a stream's last: the daemon
#: cuts its runs at exactly this much, so an 8 MiB version is eight frames,
#: not thirty-two.
RESTORE_BLOCK = 1024 * 1024

_HEADER = struct.Struct("<IB")
HEADER_SIZE = _HEADER.size


class FrameType(IntEnum):
    """Every frame the protocol speaks (wire-stable values)."""

    HELLO = 1
    HELLO_OK = 2
    BACKUP_BEGIN = 3
    CHUNK_DATA = 4
    BACKUP_END = 5
    BACKUP_DONE = 6
    BACKUP_READY = 7
    RESTORE_BEGIN = 8
    RESTORE_META = 9
    RESTORE_END = 10
    STATS = 11
    STATS_OK = 12
    DELETE_OLDEST = 13
    DELETE_OK = 14
    VERSIONS = 15
    VERSIONS_OK = 16
    ERROR = 17
    # Replication (mirror-daemon) vocabulary.  PUT and OBJECT stream their
    # body as CHUNK_DATA frames totalling exactly the announced ``size`` —
    # the count is derivable, so no END frame is needed.
    REPLICATE_STATE = 18
    REPLICATE_STATE_OK = 19
    REPLICATE_PUT = 20
    REPLICATE_PUT_OK = 21
    REPLICATE_COMMIT = 22
    REPLICATE_COMMIT_OK = 23
    REPLICATE_FETCH = 24
    REPLICATE_OBJECT = 25
    VERIFY = 26
    VERIFY_OK = 27
    # Cluster vocabulary (sharded multi-daemon deployments).  CLUSTER_MAP
    # returns the daemon's versioned membership document (or null when the
    # daemon is not part of a cluster); CLUSTER_SYNC asks a primary to
    # replicate its owned tenants to their ring successors; TENANT_DROP
    # removes one tenant's storage (rebalance cleanup — the new primary
    # must have deep-verified before anyone sends this).
    CLUSTER_MAP = 28
    CLUSTER_MAP_OK = 29
    CLUSTER_SYNC = 30
    CLUSTER_SYNC_OK = 31
    TENANT_DROP = 32
    TENANT_DROP_OK = 33


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------
def encode_frame(ftype: FrameType, payload: bytes = b"") -> bytes:
    """Serialise one frame (header + payload) to bytes."""
    if len(payload) > MAX_PAYLOAD:
        raise ProtocolError(f"frame payload of {len(payload)} B exceeds {MAX_PAYLOAD} B")
    return _HEADER.pack(len(payload), int(ftype)) + payload


def frame_parts(ftype: FrameType, payload=b"") -> Tuple[bytes, "bytes | memoryview"]:
    """One frame as ``(header, payload)`` for gather I/O.

    The zero-copy send primitive: the caller hands both pieces to
    ``socket.sendmsg`` / ``writer.writelines`` so header and payload reach
    the kernel without ever being concatenated into a fresh buffer.  The
    payload may be any bytes-like object (``memoryview`` slices included).
    """
    length = len(payload)
    if length > MAX_PAYLOAD:
        raise ProtocolError(f"frame payload of {length} B exceeds {MAX_PAYLOAD} B")
    return _HEADER.pack(length, int(ftype)), payload


def encode_data_header(length: int) -> bytes:
    """Just the header of a CHUNK_DATA frame whose body follows separately.

    Lets a sender put the header into the join that builds the body anyway
    (a restore frame) or stream the body straight off disk
    (``os.sendfile``) without copying it behind a header first.
    """
    if length > MAX_PAYLOAD:
        raise ProtocolError(f"frame payload of {length} B exceeds {MAX_PAYLOAD} B")
    return _HEADER.pack(length, int(FrameType.CHUNK_DATA))


def encode_json(ftype: FrameType, obj: dict) -> bytes:
    """Serialise a control frame with a JSON payload."""
    return encode_frame(ftype, json.dumps(obj, separators=(",", ":")).encode("utf-8"))


def encode_data(payload: bytes) -> bytes:
    """Serialise one raw CHUNK_DATA frame."""
    return encode_frame(FrameType.CHUNK_DATA, payload)


def encode_error(exc: BaseException) -> bytes:
    """Serialise an exception as an ERROR frame (class name + message).

    Non-:class:`ReproError` exceptions degrade to ``RemoteError`` on the
    other side — internal failure classes are not part of the wire contract.
    """
    name = type(exc).__name__ if isinstance(exc, ReproError) else "RemoteError"
    return encode_json(FrameType.ERROR, {"error": name, "message": str(exc)})


def hello_frame() -> bytes:
    """The handshake frame either side opens with (magic + version)."""
    return encode_json(FrameType.HELLO, {"magic": MAGIC, "version": PROTOCOL_VERSION})


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------
def decode_header(header: bytes) -> Tuple[int, FrameType]:
    """Parse + validate one frame header; returns (payload length, type)."""
    length, raw_type = _HEADER.unpack(header)
    if length > MAX_PAYLOAD:
        raise ProtocolError(f"frame announces {length} B payload (max {MAX_PAYLOAD})")
    try:
        return length, FrameType(raw_type)
    except ValueError:
        raise ProtocolError(f"unknown frame type {raw_type}") from None


def decode_json(payload) -> dict:
    """Parse a control payload, mapping malformed input to ProtocolError.

    Accepts any bytes-like object (``memoryview`` slices from the
    zero-copy decoder included) — JSON parsing copies anyway, so this is
    the natural place buffers become objects.
    """
    try:
        obj = json.loads(bytes(payload).decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"malformed control payload: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError("control payload must be a JSON object")
    return obj


def raise_remote_error(payload: bytes) -> None:
    """Re-raise the exception an ERROR frame carries, by taxonomy class."""
    obj = decode_json(payload)
    cls = error_by_name(str(obj.get("error", "RemoteError")))
    raise cls(str(obj.get("message", "remote operation failed")))


class FrameDecoder:
    """Incremental frame decoder over an untrusted, arbitrarily sliced stream.

    Feed it network reads of any size; it yields complete
    ``(FrameType, payload)`` pairs and raises :class:`ProtocolError` on
    garbage (unknown type, oversized payload).  Sans-I/O: usable from the
    blocking client and tests alike.

    It is the reader for bytes that arrive *unasked*: the client's
    non-blocking ``pending_error`` drain feeds one whatever the kernel
    holds.  The streaming path does not go through it — ``recv_frame`` reads a header and then exactly one payload — because
    a data frame's 5-byte header makes every payload straddle a
    same-sized socket read, and a straddling payload costs a reassembly copy
    here.  A payload that does land inside one fed buffer comes back as a
    ``memoryview`` slice of it; control payloads are returned as ``bytes``.
    """

    def __init__(self) -> None:
        self._chunks: List[memoryview] = []
        self._size = 0
        self._header: Optional[Tuple[int, FrameType]] = None

    @property
    def pending(self) -> int:
        """Bytes buffered but not yet forming a complete frame."""
        extra = HEADER_SIZE if self._header is not None else 0
        return self._size + extra

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered that do not yet form a complete frame."""
        return self.pending

    def feed(self, data: bytes) -> List[Tuple[FrameType, "bytes | memoryview"]]:
        """Add received bytes; return every frame completed by them."""
        if data:
            # bytes is immutable, so viewing (not copying) it is safe for
            # as long as any returned payload slice stays alive.
            self._chunks.append(memoryview(data))
            self._size += len(data)
        frames = []
        while True:
            frame = self._pop()
            if frame is None:
                return frames
            frames.append(frame)

    def _take(self, length: int) -> memoryview:
        """Consume exactly ``length`` buffered bytes (caller checked size).

        Zero-copy when the span lives inside the first chunk; a straddling
        span is reassembled once.
        """
        self._size -= length
        first = self._chunks[0]
        if len(first) >= length:
            if len(first) == length:
                self._chunks.pop(0)
            else:
                self._chunks[0] = first[length:]
            return first[:length]
        parts = bytearray()
        need = length
        while need:
            first = self._chunks[0]
            if len(first) <= need:
                parts += first
                need -= len(first)
                self._chunks.pop(0)
            else:
                parts += first[:need]
                self._chunks[0] = first[need:]
                need = 0
        return memoryview(bytes(parts))

    def _pop(self) -> Optional[Tuple[FrameType, "bytes | memoryview"]]:
        if self._header is None:
            if self._size < HEADER_SIZE:
                return None
            length, raw_type = _HEADER.unpack(self._take(HEADER_SIZE))
            if length > MAX_PAYLOAD:
                raise ProtocolError(
                    f"frame announces {length} B payload (max {MAX_PAYLOAD})"
                )
            try:
                self._header = (length, FrameType(raw_type))
            except ValueError:
                raise ProtocolError(f"unknown frame type {raw_type}") from None
        length, ftype = self._header
        if self._size < length:
            return None
        self._header = None
        if not length:
            return ftype, b""
        payload = self._take(length)
        if ftype == FrameType.CHUNK_DATA:
            return ftype, payload
        return ftype, bytes(payload)


def check_hello(payload: bytes) -> dict:
    """Validate a HELLO payload (magic + version); returns the object."""
    obj = decode_json(payload)
    if obj.get("magic") != MAGIC:
        raise ProtocolError("handshake failed: not a hidestore backup client")
    version = obj.get("version")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: peer speaks {version!r}, "
            f"this side speaks {PROTOCOL_VERSION}"
        )
    return obj


def iter_data_blocks(blocks: "Iterator[bytes]", block_size: int = DATA_BLOCK) -> Iterator[bytes]:
    """Re-slice a byte-block stream into wire-friendly CHUNK_DATA payloads.

    Oversized source blocks are split into ``memoryview`` slices (no
    copies — the sender's gather I/O takes any bytes-like payload); tiny
    ones pass through unmerged (coalescing would add latency for no
    framing benefit).
    """
    for block in blocks:
        if len(block) <= block_size:
            if block:
                yield block
            continue
        view = memoryview(block)
        for offset in range(0, len(block), block_size):
            yield view[offset : offset + block_size]
