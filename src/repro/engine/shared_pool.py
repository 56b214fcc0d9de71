"""The segment-contract ingest path: one chunking kernel, run inline.

Every backup — local, daemon session, cluster route — chunks through
:func:`iter_segments` → :func:`chunk_segment`, in the thread that runs
the backup: the caller's thread locally, the engine thread that owns the
session's socket in the daemon.

* **Determinism by construction.**  Segmentation is a pure function of
  the byte stream (fixed ``SEGMENT_BYTES`` boundaries), never of how the
  transport framed it, and each segment is chunked independently with the
  :func:`~repro.chunking.vectorized.split_fast` kernel.  A local backup, a
  daemon session and a cluster route therefore cut byte-identical chunk
  sequences, and store identical recipes, containers and dedup stats.
* **A chunker per call.**  Each repository cuts with the chunker its
  checkpoint head records, so one daemon serves FastCDC and SeqCDC
  tenants side by side.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List

from ..chunking.fingerprint import Fingerprinter
from ..chunking.stream import Chunk
from ..chunking.vectorized import split_fast

#: Ingest segment size: the unit of chunk-boundary reset.  4 MiB ≈ one
#: container of chunks per segment; large enough that the vectorized
#: chunking kernel dominates.
SEGMENT_BYTES = 4 * 1024 * 1024


def iter_segments(blocks: Iterable[bytes], segment_bytes: int = SEGMENT_BYTES) -> Iterator[bytes]:
    """Re-frame an arbitrary block stream into fixed-size ingest segments.

    Segmentation depends only on the concatenated byte stream — never on
    how the transport happened to frame it — so every front end chunks
    identical segments.  The final segment is simply shorter.
    """
    buffer = bytearray()
    for block in blocks:
        buffer += block
        while len(buffer) >= segment_bytes:
            yield bytes(buffer[:segment_bytes])
            del buffer[:segment_bytes]
    if buffer:
        yield bytes(buffer)


def chunk_segment(chunker, fingerprinter: Fingerprinter, segment: bytes) -> List[Chunk]:
    """Chunk + fingerprint one segment.

    ``split_fast`` is looked up in this module's globals at call time, so
    a wrapper installed on ``shared_pool.split_fast`` sees every cut.
    """
    return [fingerprinter.chunk(piece) for piece in split_fast(chunker, segment)]
