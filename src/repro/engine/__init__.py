"""The data-path engines: segment-contract ingest and prefetched restore.

* :mod:`~repro.engine.shared_pool` — the one ingest path.  A backup's
  byte stream is re-framed into fixed-size segments (:func:`iter_segments`)
  and each segment is chunked + fingerprinted independently
  (:func:`chunk_segment`), inline in the thread that runs the backup.
* :mod:`~repro.engine.restore` — :func:`restore_stream` executes a restore
  plan with a prefetching container-reader pool, in order, as byte runs.
"""

from .restore import execute_plan_prefetched, restore_stream
from .shared_pool import SEGMENT_BYTES, chunk_segment, iter_segments

__all__ = [
    "SEGMENT_BYTES",
    "chunk_segment",
    "execute_plan_prefetched",
    "iter_segments",
    "restore_stream",
]
