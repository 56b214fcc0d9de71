"""Recipes: per-version chunk lists used to restore the original data.

Each recipe entry is 28 bytes, exactly as the paper specifies (§2.1): a
20-byte fingerprint, a 4-byte container ID and a 4-byte size.  Traditional
systems only ever store positive container IDs.  HiDeStore overloads the CID
field (§4.3 / §4.4):

* ``cid > 0`` — the chunk lives in archival container ``cid``;
* ``cid == ACTIVE_CID (0)`` — the chunk was active when the version was
  backed up (:meth:`~repro.core.hidestore.HiDeStore.archival_cids` says where);
* ``cid < 0`` — a chain pointer to ``R_{-cid}``, left in recipes rewritten
  before recipes were write-once; resolved like ``0``.
"""

from __future__ import annotations

import os
import struct
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from ..errors import ObjectMissingError, RecipeError
from ..units import FINGERPRINT_SIZE, RECIPE_ENTRY_SIZE
from .io_model import IOStats

#: CID marker: chunk currently lives in the active containers.
ACTIVE_CID = 0


@dataclass
class RecipeEntry:
    """One chunk reference inside a recipe."""

    fingerprint: bytes
    size: int
    cid: int = ACTIVE_CID


class Recipe:
    """The ordered chunk list of one backup version."""

    def __init__(self, version_id: int, tag: str = "", entries: Optional[List[RecipeEntry]] = None) -> None:
        if version_id <= 0:
            raise RecipeError("version IDs are 1-based positive integers")
        self.version_id = version_id
        self.tag = tag or f"v{version_id}"
        self.entries: List[RecipeEntry] = entries if entries is not None else []

    def append(self, fingerprint: bytes, size: int, cid: int = ACTIVE_CID) -> RecipeEntry:
        entry = RecipeEntry(fingerprint, size, cid)
        self.entries.append(entry)
        return entry

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[RecipeEntry]:
        return iter(self.entries)

    @property
    def logical_size(self) -> int:
        """Pre-dedup byte size of the version this recipe restores."""
        return sum(e.size for e in self.entries)

    @property
    def byte_size(self) -> int:
        """Serialized recipe size (28 bytes per entry, as in the paper)."""
        return len(self.entries) * RECIPE_ENTRY_SIZE

    def referenced_containers(self) -> List[int]:
        """Distinct positive CIDs, in first-reference order."""
        seen: Dict[int, None] = {}
        for entry in self.entries:
            if entry.cid > 0 and entry.cid not in seen:
                seen[entry.cid] = None
        return list(seen)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Recipe(version={self.version_id}, tag={self.tag!r}, entries={len(self.entries)})"


_ENTRY = struct.Struct(f"<{FINGERPRINT_SIZE}siI")
assert _ENTRY.size == RECIPE_ENTRY_SIZE
_HEADER = struct.Struct("<4sII")  # magic, version_id, entry count
_MAGIC = b"HDSR"


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
    """Parse the binary form produced by :func:`pack_recipe`."""
    version_id, count = unpack_header(blob)
    try:
        offset = _HEADER.size
        (tag_len,) = struct.unpack_from("<H", blob, offset)
        offset += 2
        tag = blob[offset : offset + tag_len].decode("utf-8")
        offset += tag_len
        rows = memoryview(blob)[offset : offset + count * _ENTRY.size]
        entries = [RecipeEntry(fp, size, cid) for fp, cid, size in _ENTRY.iter_unpack(rows)]
    except (struct.error, UnicodeDecodeError) as exc:
        raise RecipeError(f"corrupt recipe blob: {exc}") from exc
    if len(entries) != count:
        raise RecipeError(f"corrupt recipe blob: {len(entries)} of {count} entries")
    return Recipe(version_id, tag, entries)


class RecipeStore(ABC):
    """Versioned recipe repository with read/write accounting.

    ``metrics``, when given, counts the bytes each write stores
    (``store.recipe_write_bytes``).
    """

    def __init__(self, stats: Optional[IOStats] = None, metrics=None) -> None:
        self.stats = stats if stats is not None else IOStats()
        self.metrics = metrics

    def _note_write(self, blob: bytes) -> None:
        self.stats.note_recipe_write(len(blob))
        if self.metrics is not None:
            self.metrics.inc("store.recipe_write_bytes", len(blob))

    @abstractmethod
    def write(self, recipe: Recipe) -> None:
        """Persist a new recipe; refuses (a ``StorageError``) one already stored."""

    def replace(self, recipe: Recipe) -> None:
        """Overwrite a stored recipe.  Only the traditional-GC baseline's
        fix-up (:mod:`repro.pipeline.gc`) may; HiDeStore never rewrites a
        recipe, and backend stores refuse."""
        raise RecipeError(f"{type(self).__name__} recipes are write-once")

    @abstractmethod
    def read(self, version_id: int) -> Recipe:
        """Load a recipe (bills one recipe read)."""

    @abstractmethod
    def delete(self, version_id: int) -> None: ...

    @abstractmethod
    def __contains__(self, version_id: int) -> bool: ...

    @abstractmethod
    def version_ids(self) -> List[int]: ...

    def latest_version(self) -> Optional[int]:
        ids = self.version_ids()
        return max(ids) if ids else None

    def peek(self, version_id: int) -> Recipe:
        """Load without billing (metrics/test use)."""
        raise NotImplementedError

    def entry_count(self, version_id: int) -> int:
        """Unbilled; serialised stores read the header, not the entries."""
        return len(self.peek(version_id))


class MemoryRecipeStore(RecipeStore):
    """Dict-backed recipe store used by simulations and benchmarks."""

    def __init__(self, stats: Optional[IOStats] = None) -> None:
        super().__init__(stats)
        self._recipes: Dict[int, Recipe] = {}

    def write(self, recipe: Recipe) -> None:
        if recipe.version_id in self._recipes:
            raise RecipeError(f"recipe for version {recipe.version_id} already stored")
        self._recipes[recipe.version_id] = recipe
        self.stats.note_recipe_write(recipe.byte_size)

    def replace(self, recipe: Recipe) -> None:
        self.delete(recipe.version_id)
        self.write(recipe)

    def read(self, version_id: int) -> Recipe:
        recipe = self._recipes.get(version_id)
        if recipe is None:
            raise RecipeError(f"no recipe for version {version_id}")
        self.stats.note_recipe_read(recipe.byte_size)
        return recipe

    def peek(self, version_id: int) -> Recipe:
        recipe = self._recipes.get(version_id)
        if recipe is None:
            raise RecipeError(f"no recipe for version {version_id}")
        return recipe

    def delete(self, version_id: int) -> None:
        if self._recipes.pop(version_id, None) is None:
            raise RecipeError(f"no recipe for version {version_id}")

    def __contains__(self, version_id: int) -> bool:
        return version_id in self._recipes

    def version_ids(self) -> List[int]:
        return sorted(self._recipes)


class BackendRecipeStore(RecipeStore):
    """Recipes as named write-once blobs on a :class:`StorageBackend`.

    Nothing rewrites a stored recipe (what the §4.3 update learns is kept
    in the checkpoint instead), so writes go through the backend's
    immutable ``put``, which refuses an overwrite.
    """

    def __init__(
        self, backend, stats: Optional[IOStats] = None, prefix: str = "", metrics=None
    ) -> None:
        super().__init__(stats, metrics)
        self.backend = backend
        self.prefix = prefix

    def _name(self, version_id: int) -> str:
        return f"{self.prefix}recipe-{version_id:08d}.hdsr"

    def write(self, recipe: Recipe) -> None:
        blob = pack_recipe(recipe)
        self.backend.put(self._name(recipe.version_id), blob)
        self._note_write(blob)

    def read(self, version_id: int) -> Recipe:
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
        return unpack_recipe(self._on(self.backend.get, version_id))

    def entry_count(self, version_id: int) -> int:
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


class FileRecipeStore(RecipeStore):
    """One binary file per recipe under ``root`` (CLI / examples backend)."""

    def __init__(self, root: str, stats: Optional[IOStats] = None, metrics=None) -> None:
        super().__init__(stats, metrics)
        self.root = root
        os.makedirs(root, exist_ok=True)

    def _path(self, version_id: int) -> str:
        return os.path.join(self.root, f"recipe-{version_id:08d}.hdsr")

    def write(self, recipe: Recipe) -> None:
        if recipe.version_id in self:
            raise RecipeError(f"recipe for version {recipe.version_id} already stored")
        self.replace(recipe)

    def replace(self, recipe: Recipe) -> None:
        """:meth:`write` without its refusal: tmp + rename, so the recipe is
        never absent."""
        blob = pack_recipe(recipe)
        tmp = self._path(recipe.version_id) + ".tmp"
        with open(tmp, "wb") as handle:
            handle.write(blob)
        os.replace(tmp, self._path(recipe.version_id))
        self._note_write(blob)

    def read(self, version_id: int) -> Recipe:
        recipe = self.peek(version_id)
        self.stats.note_recipe_read(recipe.byte_size)
        return recipe

    def _read(self, version_id: int, size: int = -1) -> bytes:
        try:
            with open(self._path(version_id), "rb") as handle:
                return handle.read(size)
        except FileNotFoundError:
            raise RecipeError(f"no recipe for version {version_id}") from None

    def peek(self, version_id: int) -> Recipe:
        return unpack_recipe(self._read(version_id))

    def entry_count(self, version_id: int) -> int:
        return unpack_header(self._read(version_id, _HEADER.size))[1]

    def delete(self, version_id: int) -> None:
        path = self._path(version_id)
        if not os.path.exists(path):
            raise RecipeError(f"no recipe for version {version_id}")
        os.remove(path)

    def __contains__(self, version_id: int) -> bool:
        return os.path.exists(self._path(version_id))

    def version_ids(self) -> List[int]:
        ids = []
        for name in os.listdir(self.root):
            if name.startswith("recipe-") and name.endswith(".hdsr"):
                ids.append(int(name[len("recipe-") : -len(".hdsr")]))
        return sorted(ids)
