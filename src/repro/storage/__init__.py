"""Storage substrate: containers, container stores, recipes, I/O accounting.

This is the persistent layer every deduplication scheme in the package sits
on.  All reads and writes are billed to an :class:`~repro.storage.io_model.IOStats`
ledger, from which the paper's hardware-independent metrics (container reads,
speed factor, lookup requests) are computed.
"""

from .backend import MemoryBackend
from .container import Container
from .container_store import (
    BackendContainerStore,
    FileContainerStore,
    pack_container,
    unpack_container,
)
from .io_model import DiskModel, IOStats
from .recipe import (
    ACTIVE_CID,
    BackendRecipeStore,
    FileRecipeStore,
    Recipe,
    RecipeEntry,
    pack_recipe,
    unpack_recipe,
)

__all__ = [
    "ACTIVE_CID",
    "BackendContainerStore",
    "BackendRecipeStore",
    "Container",
    "DiskModel",
    "FileContainerStore",
    "FileRecipeStore",
    "IOStats",
    "MemoryBackend",
    "pack_container",
    "unpack_container",
    "Recipe",
    "RecipeEntry",
    "pack_recipe",
    "unpack_recipe",
]
