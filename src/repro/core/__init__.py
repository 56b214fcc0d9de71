"""HiDeStore core: the paper's contribution.

* :class:`~repro.core.double_cache.DoubleHashCache` — §4.1's T1/T2 cache;
* :class:`~repro.core.chunk_filter.ActiveContainerPool` — §4.2's filter;
* :class:`~repro.core.recipe_chain.RecipeChain` — §4.3 / Algorithm 1;
* :class:`~repro.core.deletion.DeletionManager` — §4.5's GC-free expiry;
* :class:`~repro.core.hidestore.HiDeStore` — the assembled system.
"""

from .checkpoint import load_checkpoint, save_checkpoint
from .chunk_filter import ActiveContainerPool, FilterStats
from .deletion import DeletionManager, DeletionStats
from .double_cache import CacheEntry, DoubleHashCache
from .hidestore import HiDeStore
from .recipe_chain import ChainStats, RecipeChain
from .verify import VerificationReport, verify_hidestore, verify_system, verify_traditional

__all__ = [
    "ActiveContainerPool",
    "CacheEntry",
    "ChainStats",
    "DeletionManager",
    "DeletionStats",
    "DoubleHashCache",
    "FilterStats",
    "HiDeStore",
    "load_checkpoint",
    "save_checkpoint",
    "RecipeChain",
    "VerificationReport",
    "verify_hidestore",
    "verify_system",
    "verify_traditional",
]
