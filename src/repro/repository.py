"""Repository front end: one surface for local directories and the service.

The CLI, the backup daemon and the remote client all drive repositories
through the same small vocabulary:

* ``backup_tree(entries, tag)`` / ``backup_blocks(blocks, plan, tag)``
* ``restore(version) -> (plan, data_iter)``
* ``versions()`` / ``stats()`` / ``delete_oldest()``

:class:`LocalRepository` implements it over an on-disk HiDeStore repository
(the layout the ``hidestore`` CLI has always used); the server hosts one
``LocalRepository`` per tenant, and :class:`repro.client.RemoteRepository`
implements the same vocabulary over the wire — so ``cmd_backup`` et al.
genuinely share one code path between ``repo/`` and ``--remote HOST:PORT``.

Failed backups **roll back**: a backup that dies mid-stream (client
disconnect, storage error, process kill) leaves no recipe, no manifest, no
orphaned container files and no ``*.tmp`` litter — the repository looks
exactly as it did before the attempt.  This is the invariant the network
daemon's "partially streamed versions never become visible" guarantee is
built on.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .chunking import FastCDCChunker
from .core.checkpoint import checkpoint_document, system_from_document
from .core.hidestore import HiDeStore
from .errors import DeletionError, ObjectMissingError, ReproError, RestoreError, VersionNotFoundError
from .observability import MetricsRegistry, get_registry
from .storage.repo import RepoStorage

#: (relative name, byte size) rows describing the files of one snapshot.
FilePlan = List[Tuple[str, int]]


def open_repository(
    repo: str,
    history_depth: int = 1,
    compress: bool = False,
    metrics: Optional[MetricsRegistry] = None,
    storage: Optional[RepoStorage] = None,
) -> HiDeStore:
    """Open (or initialise) a HiDeStore repository.

    ``repo`` is a repository spec: a plain directory (the historical
    form), or a backend URL — ``file://PATH``, ``sqlite://PATH.db``,
    ``s3://HOST:PORT/BUCKET`` — optionally with ``?archive=URL`` sending
    sealed containers to a second (cold-tier) backend.

    The sealed world lives in the container and recipe stores the spec
    names; the volatile state (T1 tables, active containers, deletion
    tags) is reloaded from the checkpoint — the ``checkpoint.json`` head,
    written after every backup and every expiry, and the parts it names —
    so physical locality and the version counter survive across
    invocations.
    """
    if storage is None:
        storage = RepoStorage(repo, compress=compress, metrics=metrics)
    storage.prepare()
    container_store = storage.container_store()
    recipe_store = storage.recipe_store()
    if storage.has_checkpoint():
        store = system_from_document(
            storage.read_checkpoint_document(),
            container_store,
            recipe_store,
            storage.read_checkpoint_part,
        )
        _recover_to_checkpoint(storage, store)
        return store
    store = HiDeStore(
        container_store=container_store,
        recipe_store=recipe_store,
        history_depth=history_depth,
    )
    existing = store.recipes.version_ids()
    if existing:
        # Legacy repository without a checkpoint: the previous session must
        # have retired the store; resume via recipe priming (§4.1).
        store._next_version = existing[-1] + 1
        store._retired = True
    return store


def _recover_to_checkpoint(storage: RepoStorage, store: HiDeStore) -> None:
    """Crash recovery at open time: make the stored objects agree with the head.

    The checkpoint head is written last by every backup and every expiry,
    so it is the commit record, and whatever it does not account for is
    what a dead process (power loss, a SIGKILL'd daemon) left half done:

    * **An uncommitted tail.**  A recipe whose id is at or past the head's
      ``next_version`` is debris from a backup that died between its recipe
      write and the head: left in place it is listed by ``versions()`` but
      may be unrestorable, and — worse — the stale version counter would
      hand the same id to the next backup, silently overwriting one version
      with another.  Containers past the checkpointed allocator are
      deliberately kept: the §4.3 in-place rewrite of the previous recipe
      may already reference migrated chunks inside them, so they are at
      worst orphaned space, never safe to drop blindly.
    * **An interrupted expiry.**  §4.5 deletion removes the recipe first,
      so a deletion tag older than every retained recipe marks an expiry
      that died before its head: it is rolled forward (the rest of the
      tagged containers go too).

    Every reader comes through here, so this deletes nothing a replication
    sync lands in place ahead of its commit — on a mirror, containers,
    manifests and checkpoint parts arrive under the tenant's *read* lock,
    before the recipe and the head that account for them.  That debris is
    the writer's to sweep (:func:`_sweep_debris`).
    """
    mark = store._next_version
    probe = storage.recipe_store()
    retained = set(probe.version_ids())
    tail = [vid for vid in retained if vid >= mark]
    for vid in tail:
        probe.delete(vid)
        retained.discard(vid)
    if tail:
        storage.sweep_tmp()
    store.deletion.finish_interrupted(retained)


def _sweep_debris(storage: RepoStorage, store: HiDeStore) -> None:
    """Delete what no recipe and no head accounts for; for writers only.

    Manifests without a recipe (a backup that died before its head, an
    expiry that died before its manifest delete) and checkpoint parts the
    head does not name (a save that died before its head, stale parts of
    one that died after it, parts a sync landed under a head it never
    renamed).  Both are invisible to readers, and both are exactly what a
    sync in flight looks like on a mirror — only the holder of the writer's
    lock can tell the difference.
    """
    retained = set(store.recipes.version_ids())
    for vid in storage.manifest_ids():
        if vid not in retained:
            storage.delete_manifest(vid)
    storage.sweep_checkpoint_parts()


def validate_rel_name(rel: str) -> str:
    """Vet one relative file name from a plan or manifest; returns it.

    Rel names arrive from untrusted places — ``BACKUP_BEGIN`` frames over
    the network, manifests on disk — and are both joined under restore
    target directories and embedded in the tab-separated manifest
    encoding.  Reject anything that could escape the join (absolute
    paths, drive prefixes, ``..`` components) or corrupt the manifest
    (control characters, including tab and newline).
    """
    if not isinstance(rel, str) or not rel:
        raise ReproError("empty relative file name in file plan")
    if any(ord(ch) < 32 or ord(ch) == 127 for ch in rel):
        raise ReproError(f"control character in file name {rel!r}")
    if rel[0] in "/\\" or os.path.isabs(rel) or (len(rel) >= 2 and rel[1] == ":"):
        raise ReproError(f"absolute file name in file plan: {rel!r}")
    for part in rel.replace("\\", "/").split("/"):
        if part in ("", ".", ".."):
            raise ReproError(f"unsafe path component in file name {rel!r}")
    return rel


def read_tree(source: str) -> List[Tuple[str, str]]:
    """All files under ``source`` as (relative name, absolute path), sorted."""
    entries = []
    for root, _dirs, files in os.walk(source):
        for name in files:
            path = os.path.join(root, name)
            entries.append((os.path.relpath(path, source), path))
    entries.sort()
    return entries


def stream_blocks(
    entries: List[Tuple[str, str]], block_size: int = 1 << 20
) -> Iterator[bytes]:
    """Concatenated file contents as fixed-size blocks, in manifest order."""
    for _rel, path in entries:
        with open(path, "rb") as handle:
            while True:
                block = handle.read(block_size)
                if not block:
                    break
                yield block


def materialize(plan: FilePlan, data: Iterable[bytes], target: str) -> int:
    """Split a restored byte stream back into files under ``target``.

    ``plan`` carries the file boundaries (name + length, concatenation
    order); ``data`` yields the reassembled stream in arbitrary block
    sizes.  Returns the number of files written.

    Writes stream: each block is appended to the current file as it
    arrives, so peak memory is one incoming block (plus the partial block
    straddling a file boundary) regardless of file size.  Files are
    written to ``<name>.part`` and renamed into place only once complete —
    a restore that dies mid-stream leaves no truncated files posing as
    good ones, and the ``.part`` litter of the failed file is removed.
    """
    root = os.path.abspath(target)
    os.makedirs(root, exist_ok=True)
    blocks = iter(data)
    #: Tail of the last block that belongs to the *next* file.
    leftover = b""
    restored = 0
    for rel, size in plan:
        validate_rel_name(rel)
        out_path = os.path.join(root, rel)
        if os.path.commonpath([root, os.path.abspath(out_path)]) != root:
            raise RestoreError(f"restore path escapes target directory: {rel!r}")
        os.makedirs(os.path.dirname(out_path) or root, exist_ok=True)
        part_path = out_path + ".part"
        written = 0
        try:
            with open(part_path, "wb") as handle:
                while written < size:
                    if not leftover:
                        try:
                            leftover = next(blocks)
                        except StopIteration:
                            raise RestoreError(
                                f"restore stream ended early: {rel} needs "
                                f"{size} bytes, got {written}"
                            ) from None
                        continue
                    take = min(size - written, len(leftover))
                    handle.write(leftover[:take])
                    written += take
                    leftover = leftover[take:]
            os.replace(part_path, out_path)
        except BaseException:
            try:
                os.remove(part_path)
            except OSError:
                pass
            raise
        restored += 1
    return restored


def _covering_rows(sizes: List[int], offset: int, size: int) -> Tuple[int, int, int]:
    """Locate ``size`` bytes at ``offset`` of a version's chunk stream.

    Returns the entry range ``[start, stop)`` covering the bytes and their
    offset within the first entry (``head_skip``).  Offsets come from the
    manifest (files concatenate in manifest order); ``sizes`` are the
    recipe's entry sizes, which no chain rewrite changes.
    """
    start = stop = len(sizes)
    position = 0
    for i, entry_size in enumerate(sizes):
        if position + entry_size > offset and start == len(sizes):
            start = i
        if position >= offset + size:
            stop = i
            break
        position += entry_size
    if size == 0:
        start = stop = 0
    return start, stop, offset - sum(sizes[:start])


class LocalRepository:
    """An on-disk HiDeStore repository behind the shared front-end surface.

    Args:
        root: repository directory (created on first backup).
        history_depth: fingerprint-cache look-back for new repositories.
        compress: zlib-compress container files on disk.
        metrics: registry for stage-timing histograms (chunking, dedup,
            restore); defaults to the process registry.
        ingest_pool: a :class:`~repro.engine.shared_pool.SharedChunkPool`
            (daemon-lifetime on the server, short-lived around one local
            ``backup --workers N``); when set, :meth:`backup_blocks` chunks
            its segments on the pool instead of inline.  The chunk sequence
            is byte-identical either way (see the determinism contract in
            that module).

    Thread-safety: backups and deletions must be externally serialised (the
    daemon's per-repo writer lock does this); concurrent restores and stats
    are safe — the engine's internal lock guards the flatten/maintenance
    steps they share.
    """

    def __init__(
        self,
        root: str,
        history_depth: int = 1,
        compress: bool = False,
        metrics: Optional[MetricsRegistry] = None,
        ingest_pool=None,
    ) -> None:
        self.root = root
        self.history_depth = history_depth
        self.compress = compress
        self.ingest_pool = ingest_pool
        self.metrics = metrics if metrics is not None else get_registry()
        self.storage = RepoStorage(root, compress=compress, metrics=self.metrics)
        self._store: Optional[HiDeStore] = None
        #: The engine whose repository :meth:`_open_writer` already swept.
        self._swept: Optional[HiDeStore] = None
        self._open_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Engine lifecycle
    # ------------------------------------------------------------------
    def _open(self) -> HiDeStore:
        with self._open_lock:
            if self._store is None:
                self._store = open_repository(
                    self.root, self.history_depth,
                    compress=self.compress, metrics=self.metrics,
                    storage=self.storage,
                )
            return self._store

    def invalidate(self) -> None:
        """Drop the cached engine; the next operation reloads from disk.

        Required after anything mutates the repository files behind the
        engine's back — a replication commit landing on a mirror tenant, a
        repair overwriting container files — so the cached store never
        serves state the disk no longer holds.
        """
        with self._open_lock:
            self._store = None

    def verify(self, deep: bool = False) -> Dict:
        """Integrity-check the repository; returns the report document.

        One walk of the recipes, one load of each container
        (:mod:`repro.core.verify`); ``deep`` additionally re-hashes every
        stored chunk payload against its fingerprint on that load — the
        check that catches silent bit-flips.  Always verifies the on-disk
        state (fresh engine), so damage inflicted after the engine was
        cached is seen.  The work is recorded as ``verify.*`` metrics.
        """
        from .replication.repair import verify_repository

        started = time.perf_counter()
        report = verify_repository(self.root, deep=deep)
        seconds = time.perf_counter() - started
        self.metrics.observe("verify.seconds", seconds)
        self.metrics.inc("verify.containers_checked", report.containers_checked)
        self.metrics.inc("verify.entries_checked", report.entries_checked)
        self.metrics.inc("verify.bytes_rehashed", report.bytes_rehashed)
        self.metrics.inc("verify.issues", len(report.issues))
        return {
            "ok": report.ok,
            "seconds": seconds,
            "versions_checked": report.versions_checked,
            "entries_checked": report.entries_checked,
            "containers_checked": report.containers_checked,
            # Bounded for the wire; issues_total carries the true count.
            "issues": report.issues[:200],
            "issues_total": len(report.issues),
            "summary": report.summary(),
        }

    def _open_writer(self) -> HiDeStore:
        """The engine for a backup or an expiry: :func:`_sweep_debris` runs
        first, once per loaded engine (and never for a reader)."""
        store = self._open()
        if self._swept is not store:
            _sweep_debris(self.storage, store)
            self._swept = store
        return store

    def _open_for_backup(self) -> HiDeStore:
        store = self._open_writer()
        # A retired store cannot take further backups until its cache is
        # rebuilt from the last recipe (§4.1's T1 prefetch, cross-session).
        if store._retired and store.recipes.latest_version() is not None:
            store.prime_from_recipe()
        else:
            store._retired = False
        return store

    def _save_checkpoint(self, store: HiDeStore) -> None:
        self.storage.write_checkpoint_document(checkpoint_document(store))

    # ------------------------------------------------------------------
    # Backup
    # ------------------------------------------------------------------
    def backup_tree(self, entries: List[Tuple[str, str]], tag: str = "") -> Dict:
        """Back up files from disk ((rel, path) rows, see :func:`read_tree`)."""
        plan: FilePlan = [
            (validate_rel_name(rel), os.path.getsize(path)) for rel, path in entries
        ]
        return self.backup_blocks(stream_blocks(entries), plan, tag)

    def backup_blocks(self, blocks: Iterable[bytes], plan: FilePlan, tag: str = "") -> Dict:
        """Back up an incoming byte-block stream as one version.

        ``plan`` carries the file boundaries for the manifest; the blocks
        are the concatenation of those files, in order (any block sizing).
        This is the entry point the network daemon feeds frames into:
        chunking + fingerprinting run lazily, so ingest overlaps with frame
        arrival instead of buffering the whole version first.

        The stream is re-framed into fixed-size ingest segments
        (:func:`~repro.engine.shared_pool.iter_segments`); each segment is
        chunked independently with the vectorized FastCDC kernel — inline
        here, or on the daemon's shared multiprocess pool when
        ``ingest_pool`` is wired in.  Segmentation depends only on the
        byte stream, so every execution mode (serial, 1..N pool workers,
        thread pool) produces byte-identical recipes, containers and
        dedup stats.
        """
        from .chunking.fingerprint import Fingerprinter
        from .chunking.stream import LazyBackupStream
        from .engine.shared_pool import chunk_segment, iter_segments

        plan = [(validate_rel_name(rel), int(size)) for rel, size in plan]
        store = self._open_for_backup()
        chunker = FastCDCChunker()
        fingerprinter = Fingerprinter()
        timings = {"chunking": 0.0}

        def chunks():
            # Accumulate chunking wall time inside the lazy stream.  Note
            # this includes waiting on the source iterator (frame arrival,
            # for network ingest) and, on the pooled path, waiting for
            # worker results — it bounds the time the dedup engine spent
            # blocked on upstream stages.
            if self.ingest_pool is not None:
                # The pool segments with its own configured segment size,
                # so its slabs always fit the descriptors it hands out.
                batches = self.ingest_pool.chunk_blocks(blocks)
            else:
                batches = (
                    chunk_segment(chunker, fingerprinter, segment)
                    for segment in iter_segments(blocks)
                )
            mark = time.perf_counter()
            for batch in batches:
                timings["chunking"] += time.perf_counter() - mark
                yield from batch
                mark = time.perf_counter()
            timings["chunking"] += time.perf_counter() - mark

        stream = LazyBackupStream(chunks(), tag=tag or "")
        started = time.perf_counter()
        report = self._guarded_backup(store, lambda: store.backup(stream), plan)
        total = time.perf_counter() - started
        self.metrics.observe("repo.backup_seconds", total)
        self.metrics.observe("repo.chunking_seconds", timings["chunking"])
        self.metrics.observe("repo.dedup_seconds", max(0.0, total - timings["chunking"]))
        return report

    def _guarded_backup(self, store: HiDeStore, run, plan: FilePlan) -> Dict:
        """Run one backup attempt; on any failure, roll the repo back."""
        mark = store.containers.next_id
        versions_before = set(store.recipes.version_ids())
        latest = store.recipes.latest_version()
        prev_blob: Optional[bytes] = None
        if latest is not None:
            # The previous recipe is the one chunk-filter maintenance may
            # rewrite in place (§4.3); snapshot it for rollback.
            try:
                prev_blob = self.storage.read_object(
                    "recipe", f"recipe-{latest:08d}.hdsr"
                )
            except ObjectMissingError:
                prev_blob = None
        try:
            report = run()
            self.storage.write_manifest(
                report.version_id,
                "".join(f"{size}\t{rel}\n" for rel, size in plan),
            )
            self._save_checkpoint(store)
        except BaseException:
            self._rollback(mark, versions_before, latest, prev_blob)
            raise
        return {
            "version_id": report.version_id,
            "tag": report.tag,
            "total_chunks": report.total_chunks,
            "unique_chunks": report.unique_chunks,
            "duplicate_chunks": report.duplicate_chunks,
            "logical_bytes": report.logical_bytes,
            "stored_bytes": report.stored_bytes,
        }

    def _rollback(
        self,
        mark: int,
        versions_before: set,
        latest: Optional[int],
        prev_blob: Optional[bytes],
    ) -> None:
        """Erase every trace of a failed backup attempt.

        Deletes recipes/manifests of versions that were not visible before
        the attempt, restores the previous recipe (in-place chain updates),
        removes container objects allocated during the attempt and drops
        the in-memory engine — the next operation reloads from the
        checkpoint, which was last written at a good version boundary —
        and sweeps the checkpoint parts the attempt wrote before its head.
        Foreign container names (e.g. ``container-backup.hdsc``) are not
        ours to delete; only the 8-digit IDs from this attempt go.
        """
        with self._open_lock:
            self._store = None
        probe = self.storage.recipe_store()
        for vid in probe.version_ids():
            if vid not in versions_before:
                probe.delete(vid)
        if prev_blob is not None and latest is not None:
            self.storage.write_object(
                "recipe", f"recipe-{latest:08d}.hdsr", prev_blob
            )
        self.storage.sweep()
        for cid in self.storage.container_object_ids():
            if cid >= mark:
                self.storage.delete_container_object(cid)
        for vid in self.storage.manifest_ids():
            if vid not in versions_before:
                self.storage.delete_manifest(vid)

    # ------------------------------------------------------------------
    # Restore
    # ------------------------------------------------------------------
    def restore_plan(self, version_id: int) -> FilePlan:
        """The file boundaries of a stored version (from its manifest)."""
        text = self.storage.read_manifest(version_id)
        if text is None:
            raise VersionNotFoundError(f"no manifest for version {version_id}")
        plan: FilePlan = []
        for line in text.splitlines():
            size_str, rel = line.split("\t", 1)
            plan.append((rel, int(size_str)))
        return plan

    def restore(
        self,
        version_id: int,
        *,
        workers: int = 1,
        readahead: Optional[int] = None,
        verify: bool = False,
        file: Optional[str] = None,
    ) -> Tuple[FilePlan, Iterator[bytes]]:
        """A version's file plan plus its reassembled byte stream.

        Args:
            workers: container-reader pool size; ``1`` restores serially,
                ``>1`` prefetches container reads through the pipelined
                engine (:func:`repro.engine.restore.restore_stream`).
            readahead: in-flight container-read cap (default 2×workers).
            verify: re-hash every chunk against its recipe fingerprint;
                a mismatch raises :class:`~repro.errors.RestoreError`.
            file: restore only this manifest-relative file — only the
                containers covering its entry range are read.
        """
        from .engine.restore import restore_stream

        store = self._open()
        plan = self.restore_plan(version_id)
        offset = 0
        length: Optional[int] = None
        if file is not None:
            for name, size in plan:
                if name == file:
                    plan, length = [(file, size)], size
                    break
                offset += size
            else:
                raise VersionNotFoundError(
                    f"no file {file!r} in version {version_id}"
                )

        def data() -> Iterator[bytes]:
            started = time.perf_counter()
            skip, remaining = 0, length

            def rows(entries) -> slice:
                # Located in the recipe the restore decodes anyway: one
                # recipe read per restore, partial or whole.
                nonlocal skip
                start, stop, skip = _covering_rows(
                    [entry.size for entry in entries], offset, length
                )
                return slice(start, stop)

            for chunk in restore_stream(
                store, version_id,
                workers=workers, readahead=readahead, verify=verify,
                rows=None if file is None else rows, metrics=self.metrics,
            ):
                if chunk.data is None:
                    raise ReproError("repository chunk carries no payload")
                block = chunk.data
                if skip:
                    take = min(skip, len(block))
                    block = block[take:]
                    skip -= take
                    if not block:
                        continue
                if remaining is not None:
                    if remaining <= 0:
                        break
                    block = block[:remaining]
                    remaining -= len(block)
                yield block
            self.metrics.observe("repo.restore_seconds", time.perf_counter() - started)

        return plan, data()

    # ------------------------------------------------------------------
    # Introspection + deletion
    # ------------------------------------------------------------------
    def versions(self) -> List[Dict]:
        return self._open().version_summaries()

    def stats(self) -> Dict:
        store = self._open()
        logical = sum(
            store.recipes.peek(v).logical_size for v in store.recipes.version_ids()
        )
        stored = store.containers.stored_bytes() + store.pool.hot_bytes()
        ratio = 0.0 if logical == 0 else (logical - stored) / logical
        return {
            "versions": len(store.recipes.version_ids()),
            "logical_bytes": logical,
            "stored_bytes": stored,
            "dedup_ratio": ratio,
            "containers_archival": len(store.containers),
            "containers_active": store.pool.container_count(),
            "containers_read": store.io.container_reads,
            "containers_written": store.io.container_writes,
            "pending_maintenance": store.pending_maintenance,
            # Newest version Algorithm 1 has flattened through, if this
            # engine knows (see RecipeChain.flat_through).
            "flat_through": store.chain.flat_through or None,
        }

    def delete_oldest(self) -> Dict:
        store = self._open_writer()
        versions = store.recipes.version_ids()
        if not versions:
            raise VersionNotFoundError("repository is empty")
        oldest = versions[0]
        try:
            stats = store.delete_oldest()
            self.storage.delete_manifest(oldest)
            if self.storage.has_checkpoint():
                self._save_checkpoint(store)  # nothing dirty: the head alone
        except DeletionError:
            raise  # refused before anything changed
        except BaseException:
            # Died between the recipe and the head: the next open rolls the
            # expiry forward from the stored objects.
            self.invalidate()
            raise
        return {
            "version_id": oldest,
            "containers_deleted": stats.containers_deleted,
            "bytes_reclaimed": stats.bytes_reclaimed,
            "delete_seconds": stats.delete_seconds,
        }
