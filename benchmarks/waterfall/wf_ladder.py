"""The ladder: one byte stream through every rung, in and back out.

The first versions of the ``ingest-incremental`` stream are pushed through
each rung's public entry point in turn, each rung adding one layer to the
rung below, and restored back out the mirror-image way.  The difference
between neighbouring rungs, in seconds per GiB, is what the added layer
costs; it is what explains the gap between ``backup_mbps`` on
``ingest-incremental`` and on ``cluster-mixed``.

=============== ============================== ===============================
rung            ingest entry point             restore entry point
=============== ============================== ===============================
split           ``split_fast`` per segment     ``backend.get`` of the
                                               version's container objects
fingerprint     + ``Fingerprinter.chunk``      ``ContainerStore.read`` of them
double_cache    + ``DoubleHashCache``          + ``resolved_restore_range``
hidestore_mem   ``HiDeStore.backup``, memory   ``HiDeStore.restore_chunks``
hidestore_file  ``HiDeStore.backup``, file://  ``restore_stream``
local           ``LocalRepository``            ``LocalRepository.restore``
daemon          ``RemoteRepository``           ``RemoteRepository.restore``
cluster1        ``RoutedRepository``, 1 node   ``RoutedRepository.restore``
cluster3r2      same, 3 nodes, replicas=2,     same
                ``sync_all`` after each backup
=============== ============================== ===============================

The three lowest restore rungs read what the ``hidestore_file`` rung wrote;
chunks still in active (in-memory) containers cost them no I/O, so they are
lower bounds.
"""

from __future__ import annotations

import hashlib
import os
import time
from itertools import islice
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.chunking import FastCDCChunker
from repro.chunking.fingerprint import Fingerprinter
from repro.chunking.stream import BackupStream, Chunk
from repro.client import RemoteRepository
from repro.core.double_cache import DoubleHashCache
from repro.core.hidestore import HiDeStore
from repro.engine.restore import restore_stream
from repro.engine.shared_pool import chunk_segment, iter_segments, split_fast
from repro.metrics import modeled_backup_seconds
from repro.repository import LocalRepository, open_repository
from repro.storage.repo import RepoStorage

from wf_deploy import ClusterDeployment
from wf_gen import GenParams, MiB, Version, VersionStream
from wf_layers import LADDER_RUNGS

GiB = 1 << 30

#: Versions pushed through every rung.
LADDER_VERSIONS = 4

#: The engine's dedup batch (``core.hidestore._CLASSIFY_BATCH``).
_BATCH = 1024


def _timed(work: Callable[[], object]) -> float:
    started = time.perf_counter()
    work()
    return time.perf_counter() - started


def _chunks(version: Version) -> Iterator[Chunk]:
    chunker, fingerprinter = FastCDCChunker(), Fingerprinter()
    for segment in iter_segments(version.blocks):
        yield from chunk_segment(chunker, fingerprinter, segment)


def _check(version: Version, pieces: Iterable[bytes], rung: str) -> None:
    digest = hashlib.sha256()
    for piece in pieces:
        digest.update(piece)
    if digest.hexdigest() != version.digest:
        raise RuntimeError(f"ladder rung {rung}: restored bytes differ from the input")


class Ladder:
    """Runs the rungs and keeps (ingest seconds, restore seconds) per rung."""

    def __init__(self, seed: int, params: GenParams, workdir: str) -> None:
        self.seed = seed
        self.params = params
        self.workdir = workdir
        stream = VersionStream(seed, "ingest-incremental/0", params, fresh=False)
        self.versions = [stream.next() for _ in range(LADDER_VERSIONS)]
        self.total_bytes = sum(version.size for version in self.versions)
        self.seconds: Dict[str, Tuple[float, float]] = {}
        self.model_line = ""

    # -- kernel rungs ----------------------------------------------------
    def _ingest_split(self) -> None:
        chunker = FastCDCChunker()
        for version in self.versions:
            for segment in iter_segments(version.blocks):
                split_fast(chunker, segment)

    def _ingest_fingerprint(self) -> None:
        for version in self.versions:
            for _chunk in _chunks(version):
                pass

    def _ingest_double_cache(self) -> None:
        cache = DoubleHashCache()
        for version in self.versions:
            chunks = _chunks(version)
            while True:
                batch = list(islice(chunks, _BATCH))
                if not batch:
                    break
                entries = cache.lookup_many([chunk.fingerprint for chunk in batch])
                for chunk, entry in zip(batch, entries):
                    if entry is None:
                        cache.insert(chunk.fingerprint, chunk.size, 1)
            cache.end_version()

    # -- engine rungs ----------------------------------------------------
    def _engine_rungs(self) -> None:
        memory = HiDeStore()
        mem_ingest = _timed(lambda: self._backup_engine(memory))
        mem_restore = 0.0
        for vid, version in enumerate(self.versions, start=1):
            pieces: List[bytes] = []
            mem_restore += _timed(
                lambda: pieces.extend(c.data for c in memory.restore_chunks(vid))
            )
            _check(version, pieces, "hidestore_mem")
        self.seconds["hidestore_mem"] = (mem_ingest, mem_restore)

        storage = RepoStorage("file://" + os.path.join(self.workdir, "engine"))
        on_disk = open_repository(storage.location.spec, storage=storage)
        file_ingest = _timed(lambda: self._backup_engine(on_disk))
        file_restore = 0.0
        for vid, version in enumerate(self.versions, start=1):
            pieces = []
            file_restore += _timed(
                lambda: pieces.extend(c.data for c in restore_stream(on_disk, vid))
            )
            _check(version, pieces, "hidestore_file")
        self.seconds["hidestore_file"] = (file_ingest, file_restore)
        self._storage_restore_rungs(on_disk, storage)
        storage.close()
        self._model(on_disk, file_ingest)

    def _backup_engine(self, store: HiDeStore) -> None:
        for version in self.versions:
            store.backup(BackupStream(_chunks(version)))

    def _storage_restore_rungs(self, store: HiDeStore, storage: RepoStorage) -> None:
        """The three lowest restore rungs, over the file:// engine's objects."""
        containers = store.containers

        def archival(vid: int) -> List[int]:
            seen: Dict[int, None] = {}
            for entry in store.resolved_restore_range(vid):
                if entry.cid not in store.pool:
                    seen.setdefault(entry.cid)
            return list(seen)

        wanted = {vid: archival(vid) for vid in range(1, len(self.versions) + 1)}
        raw = _timed(lambda: [
            storage.read_object("container", f"container-{cid:08d}.hdsc")
            for cids in wanted.values() for cid in cids
        ])
        unpacked = _timed(lambda: [
            containers.read(cid) for cids in wanted.values() for cid in cids
        ])
        resolved = _timed(lambda: [
            containers.read(cid) for vid in wanted for cid in archival(vid)
        ])
        for rung, seconds in (("split", raw), ("fingerprint", unpacked),
                              ("double_cache", resolved)):
            self.seconds[rung] = (self.seconds[rung][0], seconds)

    def _model(self, store: HiDeStore, measured: float) -> None:
        """One line: measured stage shares beside the §5.4 I/O model's."""
        report = store.report
        prefetch = report.disk_index_lookups * store.lookup_unit_bytes
        dedup_io = modeled_backup_seconds(0, 0, 0, sequential_index_bytes=prefetch)
        store_io = modeled_backup_seconds(report.logical_bytes, report.stored_bytes, 0)
        modeled = dedup_io + store_io
        split = self.seconds["split"][0]
        fingerprint = self.seconds["fingerprint"][0] - split
        dedup = self.seconds["double_cache"][0] - self.seconds["fingerprint"][0]
        store_s = measured - self.seconds["double_cache"][0]
        self.model_line = (
            "ladder: measured ingest shares split/fingerprint/dedup/store = "
            + "/".join(f"{part / measured:.2f}" for part in (split, fingerprint, dedup, store_s))
            + f" of {measured:.3f} s; the §5.4 disk model bills 0/0/"
            + f"{dedup_io / modeled:.2f}/{store_io / modeled:.2f} of {modeled:.3f} s "
            "(it charges device I/O only)"
        )

    # -- repository and service rungs --------------------------------------
    def _repository_rung(
        self, rung: str, repo, after_backup: Optional[Callable[[], object]] = None
    ) -> None:
        ingest = 0.0
        ids = []
        for version in self.versions:
            blocks, plan = list(version.blocks), list(version.plan)

            def backup() -> None:
                ids.append(repo.backup_blocks(blocks, plan)["version_id"])
                if after_backup is not None:
                    after_backup()

            ingest += _timed(backup)
        restore = 0.0
        for vid, version in zip(ids, self.versions):
            pieces: List[bytes] = []
            restore += _timed(lambda: pieces.extend(repo.restore(vid)[1]))
            _check(version, pieces, rung)
        self.seconds[rung] = (ingest, restore)

    def run(self) -> None:
        self.seconds["split"] = (_timed(self._ingest_split), 0.0)
        self.seconds["fingerprint"] = (_timed(self._ingest_fingerprint), 0.0)
        self.seconds["double_cache"] = (_timed(self._ingest_double_cache), 0.0)
        self._engine_rungs()
        local = LocalRepository("file://" + os.path.join(self.workdir, "local"))
        self._repository_rung("local", local)
        local.storage.close()

        single = ClusterDeployment(
            os.path.join(self.workdir, "one"), self.seed, nodes=1, replicas=1, tenants=1
        )
        try:
            single.warm_up(self.params)
            address = single.map.nodes[0].address
            with RemoteRepository(address, "ladder-direct") as remote:
                self._repository_rung("daemon", remote)
            self._repository_rung("cluster1", single.repo(0))
        finally:
            single.close()
        triple = ClusterDeployment(
            os.path.join(self.workdir, "three"), self.seed, nodes=3, replicas=2, tenants=1
        )
        try:
            triple.warm_up(self.params)
            self._repository_rung("cluster3r2", triple.repo(0), triple.sync_all)
        finally:
            triple.close()

    # -- results -----------------------------------------------------------
    def per_gib(self, direction: int) -> Dict[str, float]:
        """Seconds per GiB of each rung; 0 is ingest, 1 is restore."""
        scale = GiB / self.total_bytes
        return {rung: self.seconds[rung][direction] * scale for rung in LADDER_RUNGS}

    def added(self, direction: int) -> Dict[str, float]:
        """Seconds per GiB each rung adds over the rung below it."""
        cost = self.per_gib(direction)
        added: Dict[str, float] = {}
        below = 0.0
        for rung in LADDER_RUNGS:
            added[rung] = cost[rung] - below
            below = cost[rung]
        return added

    def metrics(self) -> Dict[str, float]:
        mib = self.total_bytes / MiB
        ingest_added = self.added(0)
        out: Dict[str, float] = {}
        for rung in LADDER_RUNGS:
            ingest, restore = self.seconds[rung]
            out[f"ladder.{rung}.backup_mbps"] = mib / ingest
            out[f"ladder.{rung}.restore_mbps"] = mib / restore
            out[f"ladder.{rung}.cost_s_per_gib"] = ingest_added[rung]
        return out

    def report(self) -> List[str]:
        lines = [f"ladder: {LADDER_VERSIONS} versions, {self.total_bytes / MiB:.0f} MiB per rung"]
        for label, direction in (("ingest", 0), ("restore", 1)):
            added = self.added(direction)
            cost = self.per_gib(direction)
            for rung in LADDER_RUNGS:
                lines.append(
                    f"ladder: {label:7s} {rung:15s} {cost[rung]:9.3f} s/GiB "
                    f"({added[rung]:+9.3f} over the rung below)"
                )
            worst = max(added, key=added.get)
            lines.append(
                f"ladder: costliest {label} rung: {worst} adds "
                f"{added[worst]:.3f} s/GiB over the rung below"
            )
        lines.append(self.model_line)
        return lines
