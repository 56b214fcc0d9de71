"""Named scheme configurations matching the paper's evaluation (§5.1).

Deduplication comparisons (Figures 8-10): ``ddfs``, ``sparse``, ``silo``.
Restore comparisons (Figure 11): ``baseline`` (no rewriting + FAA),
``capping`` (+FAA), ``cbr``/``cfl``/``fbw`` (+FAA), ``alacc`` (FBW rewriting
+ ALACC cache, the pairing §5.3 describes), and ``hidestore``.

Every factory returns a fresh system.  Keyword conventions:

* ``index_kwargs`` / ``rewriter_kwargs`` / ``restorer_kwargs`` reach the
  respective component constructors;
* anything else (``container_size``, ``restorer``, stores, …) reaches
  :class:`~repro.pipeline.system.BackupSystem` (or
  :class:`~repro.core.hidestore.HiDeStore`), so benchmarks can sweep
  parameters freely.
"""

from __future__ import annotations

from typing import Callable, Dict

from ..index.ddfs import DDFSIndex
from ..index.blc import BLCIndex
from ..index.chunkstash import ChunkStashIndex
from ..index.extreme_binning import ExtremeBinningIndex
from ..index.full_index import ExactFullIndex
from ..index.silo import SiLoIndex
from ..index.sparse import SparseIndex
from ..restore.alacc import ALACCRestore
from ..restore.faa import FAARestore
from ..rewriting.base import Rewriter
from ..rewriting.capping import CappingRewriter
from ..rewriting.cbr import CBRRewriter
from ..rewriting.cfl import CFLRewriter
from ..rewriting.fbw import FBWRewriter
from ..rewriting.greedy_capping import GreedyCappingRewriter
from ..rewriting.none import NoRewriter
from .base import BackupEngine
from .system import BackupSystem


def _build(index_cls, rewriter_cls, default_restorer_cls, **kwargs) -> BackupSystem:
    index = index_cls(**kwargs.pop("index_kwargs", {}))
    rewriter: Rewriter = rewriter_cls(**kwargs.pop("rewriter_kwargs", {}))
    restorer_kwargs = kwargs.pop("restorer_kwargs", {})
    kwargs.setdefault("restorer", default_restorer_cls(**restorer_kwargs))
    return BackupSystem(index, rewriter, **kwargs)


def build_ddfs(**kwargs) -> BackupSystem:
    """DDFS: Bloom + locality cache, exact dedup (Zhu et al.).

    No rewriting and FAA restore: also Fig. 11's ``baseline`` curve.
    """
    return _build(DDFSIndex, NoRewriter, FAARestore, **kwargs)


def build_exact(**kwargs) -> BackupSystem:
    """Uncached exact full index (upper-bound lookup traffic)."""
    return _build(ExactFullIndex, NoRewriter, FAARestore, **kwargs)


def build_binning(**kwargs) -> BackupSystem:
    """Extreme Binning (Bhagwat et al.), file-similarity, near-exact."""
    return _build(ExtremeBinningIndex, NoRewriter, FAARestore, **kwargs)


def build_sparse(**kwargs) -> BackupSystem:
    """Sparse Indexing (Lillibridge et al.), near-exact."""
    return _build(SparseIndex, NoRewriter, FAARestore, **kwargs)


def build_silo(**kwargs) -> BackupSystem:
    """SiLo (Xia et al.), similarity + locality, near-exact."""
    return _build(SiLoIndex, NoRewriter, FAARestore, **kwargs)


def build_blc(**kwargs) -> BackupSystem:
    """BLC (Meister et al.): recipe-page locality over a full index."""
    return _build(BLCIndex, NoRewriter, FAARestore, **kwargs)


def build_chunkstash(**kwargs) -> BackupSystem:
    """ChunkStash (Debnath et al.), flash-assisted exact dedup."""
    return _build(ChunkStashIndex, NoRewriter, FAARestore, **kwargs)


def build_greedy_capping(**kwargs) -> BackupSystem:
    """Submodular (greedy max-coverage) capping — the paper's ref [34]."""
    return _build(DDFSIndex, GreedyCappingRewriter, FAARestore, **kwargs)


def build_capping(**kwargs) -> BackupSystem:
    """Capping rewriting over an exact index, FAA restore (Lillibridge'13)."""
    return _build(DDFSIndex, CappingRewriter, FAARestore, **kwargs)


def build_cbr(**kwargs) -> BackupSystem:
    """Context-based rewriting (Kaczmarczyk'12), FAA restore."""
    return _build(DDFSIndex, CBRRewriter, FAARestore, **kwargs)


def build_cfl(**kwargs) -> BackupSystem:
    """CFL selective rewriting (Nam et al.), FAA restore."""
    return _build(DDFSIndex, CFLRewriter, FAARestore, **kwargs)


def build_fbw(**kwargs) -> BackupSystem:
    """FBW look-back-window rewriting (Cao'19), FAA restore."""
    return _build(DDFSIndex, FBWRewriter, FAARestore, **kwargs)


def build_alacc(**kwargs) -> BackupSystem:
    """The paper's 'ALACC' configuration: FBW rewriting + ALACC restore."""
    return _build(DDFSIndex, FBWRewriter, ALACCRestore, **kwargs)


def build_hidestore(**kwargs) -> BackupEngine:
    """HiDeStore (this paper)."""
    # Imported here: repro.core.hidestore itself imports repro.pipeline.base,
    # so a module-level import would be circular.
    from ..core.hidestore import HiDeStore

    kwargs.pop("index_kwargs", None)
    kwargs.pop("rewriter_kwargs", None)
    restorer_kwargs = kwargs.pop("restorer_kwargs", {})
    if restorer_kwargs:
        kwargs.setdefault("restorer", FAARestore(**restorer_kwargs))
    return HiDeStore(**kwargs)


SCHEMES: Dict[str, Callable[..., BackupEngine]] = {
    "baseline": build_ddfs,
    "ddfs": build_ddfs,
    "exact": build_exact,
    "sparse": build_sparse,
    "binning": build_binning,
    "silo": build_silo,
    "capping": build_capping,
    "greedy-capping": build_greedy_capping,
    "chunkstash": build_chunkstash,
    "blc": build_blc,
    "cbr": build_cbr,
    "cfl": build_cfl,
    "fbw": build_fbw,
    "alacc": build_alacc,
    "hidestore": build_hidestore,
}


def build_scheme(name: str, **kwargs) -> BackupEngine:
    """Construct a named scheme (see :data:`SCHEMES` for the catalogue)."""
    try:
        factory = SCHEMES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown scheme {name!r}; choose from {sorted(SCHEMES)}"
        ) from None
    return factory(**kwargs)
