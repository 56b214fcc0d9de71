"""The common backup-engine surface shared by every scheme.

Historically :class:`~repro.pipeline.system.BackupSystem` (the traditional
index → rewrite → store pipeline) and :class:`~repro.core.hidestore.HiDeStore`
(the paper's system) were two unrelated classes with a copy-pasted restore
path, and every benchmark or CLI call site special-cased the pair.  This
module foregrounds the shared surface:

* :class:`BackupEngine` — a runtime-checkable :class:`~typing.Protocol`
  naming the operations every scheme supports (``backup`` / ``restore`` /
  ``restore_chunks`` / ``version_ids`` / ``stored_bytes`` /
  ``dedup_ratio`` / ``report``).  Factories in
  :mod:`~repro.pipeline.schemes` are typed against it, so callers never
  need to know which concrete engine they received.
* :class:`RestoreMixin` — the shared restore-path implementation, written
  once over three small hooks (:meth:`RestoreMixin._restore_rows`,
  :meth:`RestoreMixin._read_container`,
  :meth:`RestoreMixin._read_container_chunks`) that the engines override
  where their semantics genuinely differ (HiDeStore drains queued
  maintenance and resolves chained and active rows from memory).
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING, Callable, Iterator, List, Optional, Protocol, runtime_checkable,
)

from ..chunking.stream import BackupStream, Chunk
from ..errors import RestoreError, VersionNotFoundError
from ..reports import BackupReport, SystemReport
from ..restore.base import RestoreAlgorithm, RestoreResult
from ..restore.faa import FAARestore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..restore.scheduler import RestoreScheduler
    from ..storage.container import Container
    from ..storage.recipe import Recipe, RecipeColumns, RecipeEntry

    #: Maps a recipe's entry sizes to the slice of entries a partial
    #: restore wants.
    RowPicker = Callable[[List[int]], slice]


def pick_rows(recipe: "Recipe", rows: "Optional[RowPicker]") -> "RecipeColumns":
    """The recipe's rows as columns, narrowed to what ``rows`` picks off the
    recipe's :meth:`~repro.storage.recipe.Recipe.sizes` (only the picked
    rows are decoded)."""
    return recipe.columns(None if rows is None else rows(recipe.sizes()))


@runtime_checkable
class BackupEngine(Protocol):
    """What every backup scheme exposes, whatever its internals.

    Both :class:`~repro.pipeline.system.BackupSystem` and
    :class:`~repro.core.hidestore.HiDeStore` satisfy this protocol;
    ``isinstance(system, BackupEngine)`` checks are supported.
    """

    report: SystemReport

    def backup(self, stream: BackupStream) -> BackupReport: ...

    def restore(
        self,
        version_id: int,
        restorer: Optional[RestoreAlgorithm] = None,
    ) -> RestoreResult: ...

    def restore_chunks(
        self,
        version_id: int,
        restorer: Optional[RestoreAlgorithm] = None,
    ) -> Iterator[Chunk]: ...

    def version_ids(self) -> List[int]: ...

    def version_summaries(self) -> "List[dict]": ...

    def stored_bytes(self) -> int: ...

    @property
    def dedup_ratio(self) -> float: ...


class RestoreMixin:
    """Shared restore-path implementation for backup engines.

    Concrete engines provide ``recipes``, ``containers``, ``io`` and
    ``restorer`` attributes and may override the hooks:

    * :meth:`_restore_rows` — load a version's recipe and map its rows to
      concrete container IDs (HiDeStore drains queued maintenance and
      resolves chained and active-chunk rows here, writing nothing);
    * :meth:`_read_container` — fetch one container by ID (HiDeStore routes
      active containers through its pool here).
    """

    def _restore_rows(
        self,
        version_id: int,
        load: "Callable[[int], Recipe]",
        rows: "Optional[RowPicker]" = None,
    ) -> "RecipeColumns":
        """Hook: the rows of ``load(version_id)`` that ``rows`` picks (all
        of them by default) with concrete container IDs, the store brought
        into a restorable state first (default: the rows as recorded)."""
        return pick_rows(load(version_id), rows)

    def _read_container(self, cid: int) -> "Container":
        """Hook: fetch one container (default: the archival store)."""
        return self.containers.read(cid)

    def _read_container_chunks(self, cid, fingerprints):
        """Hook: fetch only the named chunks of one container, or ``None``.

        Backends that support ranged reads (object stores) serve restore
        slots without shipping the whole container; stores that don't —
        or containers that can't be partially read (compressed blobs,
        in-memory pool containers) — return ``None`` and the caller falls
        back to :meth:`_read_container`.  Billing is identical either way:
        a ranged fetch still bills one whole-container read, so IOStats
        parity with the full-read path holds.
        """
        read_chunks = getattr(self.containers, "read_chunks", None)
        if read_chunks is None:
            return None
        return read_chunks(cid, fingerprints)

    # ------------------------------------------------------------------
    def resolved_restore_range(
        self,
        version_id: int,
        rows: "Optional[RowPicker]" = None,
    ) -> "RecipeColumns":
        """Prepare the store and resolve a version's rows for restoring.

        The one row-resolution path every restore flavour shares: full
        restores (``rows is None``), partial restores (``rows`` maps the
        recipe's entry sizes to the slice wanted, so a caller that locates its
        range by entry size costs no second recipe read), the serial
        algorithm layer and the pipelined engine all come through here, so
        maintenance draining and chained/active-row resolution happen
        identically everywhere.  The rows come as columns; iterating them
        builds :class:`~repro.storage.recipe.RecipeEntry` rows.
        """
        if version_id not in self.recipes:
            raise VersionNotFoundError(f"no backup version {version_id}")
        return self._restore_rows(version_id, self.recipes.read, rows)

    def restore_scheduler(self) -> "RestoreScheduler":
        """The plan scheduler of this engine's FAA policy.

        This is the hook the pipelined restore engine calls: the returned
        scheduler turns :meth:`resolved_restore_range`'s CID and size
        columns into an ordered container-read plan that a prefetching executor can run —
        with exactly the read sequence :class:`FAARestore` would issue.
        The engine executes FAA plans only; an engine built with another
        policy raises :class:`~repro.errors.RestoreError` here (run it
        through :meth:`restore` instead).
        """
        if not isinstance(self.restorer, FAARestore):
            raise RestoreError(
                f"the pipelined restore engine plans FAA only, not "
                f"{self.restorer.name!r}"
            )
        return self.restorer.scheduler()

    def restore_chunks(
        self,
        version_id: int,
        restorer: Optional[RestoreAlgorithm] = None,
    ) -> Iterator[Chunk]:
        """Stream a stored version's chunks in original order."""
        entries = list(self.resolved_restore_range(version_id))
        algorithm = restorer if restorer is not None else self.restorer
        return algorithm.restore(entries, self._read_container)

    def restore(
        self,
        version_id: int,
        restorer: Optional[RestoreAlgorithm] = None,
    ) -> RestoreResult:
        """Restore a version, returning container-read accounting."""
        before = self.io.snapshot()
        result = RestoreResult()
        for chunk in self.restore_chunks(version_id, restorer):
            result.chunks += 1
            result.logical_bytes += chunk.size
        result.container_reads = self.io.delta(before).container_reads
        return result

    # ------------------------------------------------------------------
    def version_summaries(self) -> List[dict]:
        """Per-version metadata rows (billing-free): id, tag, chunks, bytes.

        This is the ``versions`` listing every front end (CLI, service
        ``VERSIONS`` frame) renders; it reads recipe metadata only, so it is
        safe to call concurrently with restores.
        """
        rows = []
        for version_id in self.recipes.version_ids():
            recipe = self.recipes.peek(version_id)
            rows.append(
                {
                    "version_id": version_id,
                    "tag": recipe.tag,
                    "chunks": len(recipe),
                    "logical_bytes": recipe.logical_size,
                }
            )
        return rows

    def resolved_entries(self, version_id: int) -> "List[RecipeEntry]":
        """A version's entries with concrete container IDs, billing-free.

        Used by the fragmentation/locality analyses, which need the
        physical layout without perturbing the I/O counters.
        """
        if version_id not in self.recipes:
            raise VersionNotFoundError(f"no backup version {version_id}")
        return list(self._restore_rows(version_id, self.recipes.peek))
