"""Recipes: per-version chunk lists used to restore the original data.

Each recipe entry is 28 bytes, exactly as the paper specifies (§2.1): a
20-byte fingerprint, a 4-byte container ID and a 4-byte size.  Traditional
systems only ever store positive container IDs.  HiDeStore overloads the CID
field (§4.3 / §4.4):

* ``cid > 0`` — the chunk lives in archival container ``cid``;
* ``cid == ACTIVE_CID (0)`` — the chunk was active when the version was
  backed up (:meth:`~repro.core.hidestore.HiDeStore.resolve_cids` says where);
* ``cid < 0`` — a chain pointer to ``R_{-cid}``, left in recipes rewritten
  before recipes were write-once; resolved like ``0``.

Every persistent repository keeps its recipes in a
:class:`BackendRecipeStore`: write-once ``recipes/recipe-%08d.hdsr`` objects
on its primary backend, whatever the scheme; an engine built without
stores keeps them on a :class:`~repro.storage.backend.MemoryBackend`.
:class:`FileRecipeStore` is the same store over a bare directory.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import ObjectMissingError, RecipeError
from ..units import FINGERPRINT_SIZE, RECIPE_ENTRY_SIZE
from .backend import FileBackend, wrap_backend
from .io_model import IOStats

#: CID marker: chunk currently lives in the active containers.
ACTIVE_CID = 0


class RecipeEntry:
    """One chunk reference inside a recipe."""

    __slots__ = ("fingerprint", "size", "cid")

    def __init__(self, fingerprint: bytes, size: int, cid: int = ACTIVE_CID) -> None:
        self.fingerprint = fingerprint
        self.size = size
        self.cid = cid

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RecipeEntry):
            return NotImplemented
        return (self.fingerprint, self.size, self.cid) == (other.fingerprint, other.size, other.cid)

    __hash__ = None  # type: ignore[assignment]  # mutable, as it always was

    def __repr__(self) -> str:
        return f"RecipeEntry(fingerprint={self.fingerprint!r}, size={self.size}, cid={self.cid})"


class RecipeColumns:
    """Recipe rows as three columns: fingerprints, sizes and CIDs.

    A restore resolves, plans and cuts these columns without building a
    :class:`RecipeEntry` per row; iterating them builds the entries, for
    callers that walk rows (the simulated algorithm layer, analyses).
    """

    __slots__ = ("fingerprints", "sizes", "cids")

    def __init__(
        self, fingerprints: Sequence[bytes], sizes: Sequence[int], cids: Sequence[int]
    ) -> None:
        self.fingerprints = fingerprints
        self.sizes = sizes
        self.cids = cids

    def __len__(self) -> int:
        return len(self.sizes)

    def __iter__(self) -> Iterator[RecipeEntry]:
        return map(RecipeEntry, self.fingerprints, self.sizes, self.cids)


class Recipe:
    """The ordered chunk list of one backup version.

    A recipe decoded from its blob keeps the packed row table and builds
    its :attr:`entries` on first use; a restore decodes the rows it wants
    as :meth:`columns` instead (a file restore locates them on
    :meth:`sizes` first).
    """

    def __init__(
        self,
        version_id: int,
        tag: str = "",
        entries: Optional[List[RecipeEntry]] = None,
        rows: Optional[memoryview] = None,
    ) -> None:
        if version_id <= 0:
            raise RecipeError("version IDs are 1-based positive integers")
        self.version_id = version_id
        self.tag = tag or f"v{version_id}"
        if entries is None and rows is None:
            entries = []
        self._entries: Optional[List[RecipeEntry]] = entries
        #: The packed rows (:data:`_ENTRY` each) while no entry is built.
        self._rows = rows if entries is None else None
        #: All of the packed rows as columns, once decoded: a verify walks a
        #: recipe and then builds the chain index off it.
        self._columns: Optional[RecipeColumns] = None

    @property
    def entries(self) -> List[RecipeEntry]:
        if self._entries is None:
            self._entries = _build_entries(self._rows)
            self._rows = None
        return self._entries

    def columns(self, picked: Optional[slice] = None) -> RecipeColumns:
        """The rows of the range ``picked`` (``[start, stop)``; all rows by
        default) as columns, decoded off the packed rows in one pass when
        no entry is built."""
        if self._rows is None:
            entries = self.entries if picked is None else self.entries[picked]
            return RecipeColumns(
                [entry.fingerprint for entry in entries],
                [entry.size for entry in entries],
                [entry.cid for entry in entries],
            )
        if picked is None:
            if self._columns is None:
                self._columns = _decode_columns(self._rows)
            return self._columns
        return _decode_columns(self._rows[picked.start * _ENTRY.size : picked.stop * _ENTRY.size])

    def sizes(self) -> List[int]:
        """Every entry's size in recipe order, off the rows when no entry is built."""
        if self._rows is None:
            return [entry.size for entry in self.entries]
        return [size for (size,) in _SIZE.iter_unpack(self._rows)]

    def append(self, fingerprint: bytes, size: int, cid: int = ACTIVE_CID) -> RecipeEntry:
        entry = RecipeEntry(fingerprint, size, cid)
        self.entries.append(entry)
        return entry

    def __len__(self) -> int:
        if self._rows is None:
            return len(self._entries)
        return len(self._rows) // _ENTRY.size

    def __iter__(self) -> Iterator[RecipeEntry]:
        return iter(self.entries)

    @property
    def logical_size(self) -> int:
        """Pre-dedup byte size of the version this recipe restores."""
        return sum(self.sizes())

    @property
    def byte_size(self) -> int:
        """Serialized recipe size (28 bytes per entry, as in the paper)."""
        return len(self) * RECIPE_ENTRY_SIZE

    def referenced_containers(self) -> List[int]:
        """Distinct positive CIDs, in first-reference order."""
        seen: Dict[int, None] = {}
        for entry in self.entries:
            if entry.cid > 0 and entry.cid not in seen:
                seen[entry.cid] = None
        return list(seen)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Recipe(version={self.version_id}, tag={self.tag!r}, entries={len(self)})"


_ENTRY = struct.Struct(f"<{FINGERPRINT_SIZE}siI")
assert _ENTRY.size == RECIPE_ENTRY_SIZE
#: A row's size alone: the fingerprint and CID are skipped, not decoded.
_SIZE = struct.Struct(f"<{FINGERPRINT_SIZE + 4}xI")
assert _SIZE.size == RECIPE_ENTRY_SIZE
_HEADER = struct.Struct("<4sII")  # magic, version_id, entry count
_MAGIC = b"HDSR"


def _build_entries(rows) -> List[RecipeEntry]:
    return [RecipeEntry(fp, size, cid) for fp, cid, size in _ENTRY.iter_unpack(rows)]


def _decode_columns(rows) -> RecipeColumns:
    if not rows:
        return RecipeColumns((), (), ())
    fingerprints, cids, sizes = zip(*_ENTRY.iter_unpack(rows))
    return RecipeColumns(fingerprints, sizes, cids)


def pack_recipe(recipe: Recipe) -> bytes:
    """Serialise a recipe to its binary on-disk form."""
    parts = [_HEADER.pack(_MAGIC, recipe.version_id, len(recipe.entries))]
    tag = recipe.tag.encode("utf-8")
    parts.append(struct.pack("<H", len(tag)))
    parts.append(tag)
    for entry in recipe.entries:
        parts.append(_ENTRY.pack(entry.fingerprint, entry.cid, entry.size))
    return b"".join(parts)


def unpack_header(blob: bytes) -> Tuple[int, int]:
    """``(version_id, entry count)`` from the first ``_HEADER.size`` bytes."""
    try:
        magic, version_id, count = _HEADER.unpack_from(blob, 0)
    except struct.error as exc:
        raise RecipeError(f"corrupt recipe blob: {exc}") from exc
    if magic != _MAGIC:
        raise RecipeError("bad recipe magic")
    return version_id, count


def unpack_recipe(blob: bytes) -> Recipe:
    """Parse the binary form produced by :func:`pack_recipe`.

    The row table's length is checked here; its rows stay packed until the
    recipe's :attr:`~Recipe.entries` are first asked for.
    """
    version_id, count = unpack_header(blob)
    try:
        offset = _HEADER.size
        (tag_len,) = struct.unpack_from("<H", blob, offset)
        offset += 2
        tag = blob[offset : offset + tag_len].decode("utf-8")
        offset += tag_len
    except (struct.error, UnicodeDecodeError) as exc:
        raise RecipeError(f"corrupt recipe blob: {exc}") from exc
    rows = memoryview(blob)[offset : offset + count * _ENTRY.size]
    if len(rows) != count * _ENTRY.size:
        raise RecipeError(
            f"corrupt recipe blob: {len(rows) // _ENTRY.size} of {count} entries"
        )
    return Recipe(version_id, tag, rows=rows)


class BackendRecipeStore:
    """Recipes as named write-once blobs on a :class:`StorageBackend`, with
    read/write accounting.

    Nothing rewrites a stored recipe (what the §4.3 update learns is kept
    in the checkpoint instead), so writes go through the backend's
    immutable ``put``, which refuses an overwrite.
    """

    def __init__(self, backend, stats: Optional[IOStats] = None, prefix: str = "") -> None:
        self.stats = stats if stats is not None else IOStats()
        self.backend = backend
        self.prefix = prefix

    def _name(self, version_id: int) -> str:
        return f"{self.prefix}recipe-{version_id:08d}.hdsr"

    def write(self, recipe: Recipe) -> None:
        """Persist a new recipe; refuses (a ``StorageError``) one already stored."""
        blob = pack_recipe(recipe)
        self.backend.put(self._name(recipe.version_id), blob)
        self.stats.note_recipe_write(len(blob))

    def read(self, version_id: int) -> Recipe:
        """Load a recipe (bills one recipe read)."""
        recipe = self.peek(version_id)
        self.stats.note_recipe_read(recipe.byte_size)
        return recipe

    def _on(self, op, version_id: int, *args):
        """``op(name, *args)`` on ``R_version``'s object; missing is a RecipeError."""
        try:
            return op(self._name(version_id), *args)
        except ObjectMissingError:
            raise RecipeError(f"no recipe for version {version_id}") from None

    def peek(self, version_id: int) -> Recipe:
        """Load without billing (metrics/test use)."""
        return unpack_recipe(self._on(self.backend.get, version_id))

    def entry_count(self, version_id: int) -> int:
        """Unbilled; reads the header, not the entries."""
        return unpack_header(self._on(self.backend.get_range, version_id, 0, _HEADER.size))[1]

    def delete(self, version_id: int) -> None:
        self._on(self.backend.delete, version_id)

    def __contains__(self, version_id: int) -> bool:
        return self.backend.exists(self._name(version_id))

    def version_ids(self) -> List[int]:
        ids = []
        start = len(self.prefix)
        for name in self.backend.list(self.prefix):
            short = name[start:]
            if short.startswith("recipe-") and short.endswith(".hdsr"):
                stem = short[len("recipe-") : -len(".hdsr")]
                if stem.isdigit():
                    ids.append(int(stem))
        return sorted(ids)

    def latest_version(self) -> Optional[int]:
        ids = self.version_ids()
        return max(ids) if ids else None


class FileRecipeStore(BackendRecipeStore):
    """One file per recipe under ``root``: a :class:`BackendRecipeStore`
    over a ``file://`` backend, writing ``*.tmp`` + rename like every
    object of a directory repository."""

    def __init__(self, root: str, stats: Optional[IOStats] = None) -> None:
        self.root = root
        super().__init__(wrap_backend(FileBackend(root)), stats=stats)
