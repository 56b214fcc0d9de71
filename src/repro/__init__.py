"""repro — a from-scratch reproduction of HiDeStore (MIDDLEWARE 2020).

*"Improving the Restore Performance via Physical-Locality Middleware for
Backup Systems"* — Li, Hua, Cao, Zhang.

The package is organised like the system in the paper:

* :mod:`repro.chunking` — CDC chunkers (TTTD, Rabin, FastCDC, AE) + SHA-1;
* :mod:`repro.storage` — 4 MiB containers, recipes, I/O accounting;
* :mod:`repro.index` — DDFS / Sparse Indexing / SiLo baselines;
* :mod:`repro.rewriting` — Capping / CBR / CFL / FBW baselines;
* :mod:`repro.restore` — container/chunk caches, FAA, ALACC;
* :mod:`repro.pipeline` — the Destor-like platform assembling the above;
* :mod:`repro.core` — **HiDeStore itself** (double cache, chunk filter,
  recipe chain, GC-free deletion);
* :mod:`repro.workloads` — scaled synthetic equivalents of the paper's
  datasets plus traces and real byte trees;
* :mod:`repro.metrics` / :mod:`repro.analysis` — the paper's metrics and
  the §3 observation experiment.

Quickstart::

    from repro import HiDeStore, load_preset

    system = HiDeStore()
    for stream in load_preset("kernel", versions=10).versions():
        system.backup(stream)
    result = system.restore(10)
    print(result.speed_factor)
"""

from .chunking import (
    AEChunker,
    BackupStream,
    Chunk,
    FastCDCChunker,
    Fingerprinter,
    FixedChunker,
    RabinChunker,
    SeqCDCChunker,
    TTTDChunker,
    make_chunker,
)
from .core import DoubleHashCache, HiDeStore
from .errors import ReproError
from .experiments import run_matrix, run_single, write_csv
from .index import DDFSIndex, ExactFullIndex, SiLoIndex, SparseIndex, make_index
from .pipeline import BackupSystem, SCHEMES, build_scheme
from .restore import (
    ALACCRestore,
    ChunkCacheRestore,
    ContainerCacheRestore,
    FAARestore,
    OptimalContainerCacheRestore,
    make_restorer,
)
from .rewriting import (
    CBRRewriter,
    CFLRewriter,
    CappingRewriter,
    FBWRewriter,
    NoRewriter,
    make_rewriter,
)
from .storage import (
    Container,
    FileContainerStore,
    FileRecipeStore,
    IOStats,
    Recipe,
)
from .workloads import SyntheticWorkload, WorkloadSpec, load_preset, preset_names

__version__ = "1.0.0"

__all__ = [
    "AEChunker",
    "ALACCRestore",
    "BackupStream",
    "BackupSystem",
    "CBRRewriter",
    "CFLRewriter",
    "CappingRewriter",
    "Chunk",
    "ChunkCacheRestore",
    "Container",
    "ContainerCacheRestore",
    "DDFSIndex",
    "DoubleHashCache",
    "ExactFullIndex",
    "FAARestore",
    "FBWRewriter",
    "FastCDCChunker",
    "FileContainerStore",
    "FileRecipeStore",
    "Fingerprinter",
    "FixedChunker",
    "HiDeStore",
    "IOStats",
    "NoRewriter",
    "OptimalContainerCacheRestore",
    "RabinChunker",
    "SeqCDCChunker",
    "Recipe",
    "ReproError",
    "SCHEMES",
    "SiLoIndex",
    "SparseIndex",
    "SyntheticWorkload",
    "TTTDChunker",
    "WorkloadSpec",
    "build_scheme",
    "run_matrix",
    "run_single",
    "write_csv",
    "load_preset",
    "make_chunker",
    "make_index",
    "make_restorer",
    "make_rewriter",
    "preset_names",
    "__version__",
]
