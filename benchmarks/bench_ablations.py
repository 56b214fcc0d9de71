"""Ablations over the design choices DESIGN.md calls out.

1. Compaction threshold: hot-set density vs compaction work (§4.2).
2. History depth on the macos-like workload: dedup ratio vs scratch memory
   (§4.1's extra hash table).
3. Capping level: restore speed vs dedup-ratio loss (the baseline's knob).
4. FAA area size: restore reads vs memory, on a HiDeStore layout.
5. Restore algorithm shoot-out on identical fragmented layouts.
6. Chunker: paper-config FastCDC vs SeqCDC on byte-level evolving versions
   of random data (with a ``min_size`` sweep), the repository's own source
   text and three low-entropy streams — cut speed, mean chunk,
   stored/logical.
"""

import random
import time
from pathlib import Path

import pytest

from common import CONTAINER, emit, run_scheme, table
from repro.chunking import FastCDCChunker, Fingerprinter, SeqCDCChunker
from repro.chunking.stream import BackupStream
from repro.chunking.vectorized import cut_lengths
from repro.core.hidestore import HiDeStore
from repro.engine import iter_segments
from repro.experiments import DDFS_CACHE, scheme_config
from repro.metrics import exact_dedup_ratio
from repro.pipeline import build_scheme
from repro.restore import (
    ALACCRestore,
    ChunkCacheRestore,
    ContainerCacheRestore,
    FAARestore,
    OptimalContainerCacheRestore,
)
from repro.units import KiB, MiB
from repro.workloads import load_preset

VERSIONS = 16


def test_ablation_compaction_threshold(benchmark):
    rows = []

    def sweep():
        for threshold in (0.0, 0.3, 0.5, 0.7, 0.9):
            system = HiDeStore(container_size=CONTAINER, compaction_threshold=threshold)
            for stream in load_preset("kernel", versions=VERSIONS).versions():
                system.backup(stream)
            newest = system.version_ids()[-1]
            sf = system.restore(newest).speed_factor
            rows.append([
                f"{threshold:.1f}",
                f"{sf:.3f}",
                system.pool.container_count(),
                system.pool.stats.compactions,
                f"{system.pool.stats.compact_seconds * 1000:.1f} ms",
            ])
        return len(rows)

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    table(
        ["threshold", "sf(newest)", "active containers", "compactions", "compact time"],
        rows,
        title="Ablation — compaction threshold (kernel)",
    )
    # Higher thresholds keep the hot set denser (fewer active containers).
    assert int(rows[-1][2]) <= int(rows[0][2])


def test_ablation_history_depth_macos(benchmark):
    rows = []
    exact = exact_dedup_ratio(load_preset("macos", versions=10).versions())

    def sweep():
        for depth in (1, 2, 3):
            system = HiDeStore(container_size=CONTAINER, history_depth=depth)
            for stream in load_preset("macos", versions=10).versions():
                system.backup(stream)
            rows.append([
                depth,
                f"{system.dedup_ratio:.4f}",
                system.transient_cache_bytes,
            ])
        return len(rows)

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    table(
        ["history depth", "dedup ratio", "T1/T2 bytes"],
        rows + [["exact", f"{exact:.4f}", "-"]],
        title="Ablation — history depth on macos (§4.1's extra hash table)",
    )
    assert float(rows[1][1]) > float(rows[0][1])  # depth 2 recovers skips
    # rows hold 4-decimal renderings; allow that rounding.
    assert abs(float(rows[1][1]) - exact) < 1e-3
    assert int(rows[1][2]) > int(rows[0][2])  # at a memory cost


def test_ablation_capping_level(benchmark):
    rows = []

    def sweep():
        for cap in (4, 8, 16, 32, 64):
            system = build_scheme(
                "capping",
                container_size=CONTAINER,
                rewriter_kwargs=dict(cap=cap, segment_bytes=4 * MiB),
                index_kwargs=dict(cache_containers=DDFS_CACHE),
            )
            for stream in load_preset("kernel", versions=VERSIONS).versions():
                system.backup(stream)
            newest = system.version_ids()[-1]
            rows.append([
                cap,
                f"{system.dedup_ratio:.4f}",
                f"{system.restore(newest).speed_factor:.3f}",
            ])
        return len(rows)

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    table(
        ["cap", "dedup ratio", "sf(newest)"],
        rows,
        title="Ablation — capping level (restore speed vs ratio loss)",
    )
    # Tighter caps trade dedup ratio for restore speed.
    assert float(rows[0][1]) < float(rows[-1][1])
    assert float(rows[0][2]) >= float(rows[-1][2])


def test_ablation_greedy_vs_classic_capping(benchmark):
    """Submodular (byte-coverage, ref [34]) vs count-ranked capping."""
    rows = []

    def sweep():
        for cap in (8, 16, 32):
            for name, kwargs in (
                ("capping", dict(cap=cap, segment_bytes=4 * MiB)),
                ("greedy-capping", dict(cap=cap, segment_bytes=4 * MiB,
                                        min_coverage_bytes=32 * 1024)),
            ):
                system = build_scheme(
                    name,
                    container_size=CONTAINER,
                    rewriter_kwargs=kwargs,
                    index_kwargs=dict(cache_containers=DDFS_CACHE),
                )
                for stream in load_preset("kernel", versions=VERSIONS).versions():
                    system.backup(stream)
                newest = system.version_ids()[-1]
                rows.append([
                    name,
                    cap,
                    f"{system.dedup_ratio:.4f}",
                    f"{system.restore(newest).speed_factor:.3f}",
                ])
        return len(rows)

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    table(
        ["variant", "cap", "dedup ratio", "sf(newest)"],
        rows,
        title="Ablation — greedy (submodular) vs classic capping",
    )
    # At equal caps, the greedy variant must not lose more ratio.
    by_key = {(r[0], r[1]): float(r[2]) for r in rows}
    for cap in (8, 16, 32):
        assert by_key[("greedy-capping", cap)] >= by_key[("capping", cap)] - 0.02


def test_ablation_faa_area(benchmark):
    system = run_scheme("baseline", "kernel", versions=VERSIONS)
    newest = system.version_ids()[-1]
    rows = []

    def sweep():
        for area in (2 * MiB, 4 * MiB, 8 * MiB, 16 * MiB, 32 * MiB):
            sf = system.restore(newest, restorer=FAARestore(area_bytes=area)).speed_factor
            rows.append([f"{area // MiB} MiB", f"{sf:.3f}"])
        return len(rows)

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    table(["FAA area", "sf(newest)"], rows, title="Ablation — FAA area size (baseline layout)")
    assert float(rows[-1][1]) >= float(rows[0][1])


def test_ablation_index_family(benchmark):
    """All implemented fingerprint indexes on one workload: the design space
    around Figures 9/10 (exact vs near-exact, RAM vs disk vs flash)."""
    configs = {
        "exact": {},
        "ddfs": scheme_config("ddfs"),
        "blc": dict(index_kwargs=dict(cache_pages=8)),
        "chunkstash": {},
        "sparse": {},
        "silo": {},
        "binning": {},
        "hidestore": {},
    }
    rows = []

    def sweep():
        for name, kwargs in configs.items():
            system = build_scheme(name, container_size=CONTAINER, **kwargs)
            for stream in load_preset("kernel", versions=VERSIONS).versions():
                system.backup(stream)
            report = system.report
            extra = ""
            if name == "chunkstash":
                extra = f"{system.index.flash_lookups} flash"
            rows.append([
                name,
                f"{report.dedup_ratio:.4f}",
                f"{report.lookups_per_gb:.0f}",
                f"{report.index_bytes_per_mb:.1f}",
                extra,
            ])
        return len(rows)

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    table(
        ["index", "dedup ratio", "lkp/GB", "idx B/MB", "notes"],
        rows,
        title="Ablation — the fingerprint-index design space (kernel)",
    )
    by_name = {r[0]: r for r in rows}
    # Exact family all tie on ratio; HiDeStore matches them.
    assert by_name["hidestore"][1] == by_name["exact"][1] == by_name["ddfs"][1]


def test_ablation_restore_algorithms_on_same_layout(benchmark):
    """All restore algorithms over the identical fragmented layout."""
    system = run_scheme("baseline", "kernel", versions=VERSIONS)
    newest = system.version_ids()[-1]
    budget = 8 * MiB
    algorithms = {
        "container-lru": ContainerCacheRestore(cache_containers=budget // CONTAINER),
        "chunk-lru": ChunkCacheRestore(cache_bytes=budget),
        "faa": FAARestore(area_bytes=budget),
        "alacc": ALACCRestore(
            total_bytes=budget, lookahead_bytes=budget,
            min_faa_bytes=2 * MiB, step_bytes=1 * MiB,
        ),
        "optimal": OptimalContainerCacheRestore(cache_containers=budget // CONTAINER),
    }
    rows = []

    def sweep():
        for name, algorithm in algorithms.items():
            result = system.restore(newest, restorer=algorithm)
            rows.append([name, result.container_reads, f"{result.speed_factor:.3f}"])
        return len(rows)

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    table(
        ["algorithm", "container reads", "speed factor"],
        rows,
        title=f"Ablation — restore algorithms, same layout, {budget // MiB} MiB budget",
    )
    reads = {row[0]: int(row[1]) for row in rows}
    assert reads["optimal"] <= reads["container-lru"]
    assert reads["alacc"] <= reads["faa"] * 1.05


def _evolving_versions(count: int, size: int, draw, seed: int = 28):
    """``count`` versions of a ``size``-byte stream: each overwrites four
    64 KiB windows of the one before, inserts 256 KiB at a random offset
    and truncates the tail to keep the size.  ``draw(rng, n)`` supplies
    every new byte, so an edit is the same kind of data as the stream."""
    rng = random.Random(seed)
    data = bytearray(draw(rng, size))
    for _ in range(count):
        yield bytes(data)
        for _ in range(4):
            offset = rng.randrange(size - 64 * KiB)
            data[offset : offset + 64 * KiB] = draw(rng, 64 * KiB)
        offset = rng.randrange(size)
        data[offset:offset] = draw(rng, 256 * KiB)
        del data[size:]


def _slices(corpus: bytes):
    """A ``draw`` that takes ``n`` bytes of ``corpus`` at a random offset."""

    def draw(rng, n):
        offset = rng.randrange(len(corpus) - n)
        return corpus[offset : offset + n]

    return draw


def _source_text() -> bytes:
    """The repository's own Python and Markdown files, concatenated."""
    root = Path(__file__).resolve().parents[1]
    paths = sorted(
        path
        for top in ("src", "tests", "benchmarks", "docs")
        for path in (root / top).rglob("*")
        if path.suffix in (".py", ".md") and path.is_file()
    )
    return b"".join(path.read_bytes() for path in paths)


def _numeric_csv(rng: random.Random, size: int) -> bytes:
    rows = (",".join(str(rng.randrange(100_000)) for _ in range(8)) for _ in range(size // 40))
    return "\n".join(rows).encode()


#: byte -> byte & 3: random bytes drawn from a four-symbol alphabet.
_FOUR_SYMBOLS = bytes(i & 3 for i in range(256))

#: (corpus, version bytes, draw): non-uniform data next to the random
#: stream every other benchmark uses.  Neither four symbols nor numeric
#: CSV holds a strictly increasing run of seven bytes, so a rule that
#: compared raw bytes would cut those two only at max_size.
_CORPORA = [
    ("random", 8 * MiB, lambda rng, n: rng.randbytes(n)),
    ("source text", 1 * MiB, _slices(_source_text())),
    ("four symbols", 4 * MiB, lambda rng, n: rng.randbytes(n).translate(_FOUR_SYMBOLS)),
    ("hex text", 4 * MiB, lambda rng, n: rng.randbytes(n // 2).hex().encode()),
    ("numeric CSV", 4 * MiB, _slices(_numeric_csv(random.Random(6), 12 * MiB))),
]


def _chunk_versions(chunker, versions):
    """Back up ``versions`` cut as the repository cuts them (4 MiB
    segments); returns (cut seconds, mean chunk bytes, stored / logical)."""
    fingerprinter = Fingerprinter()
    system = HiDeStore()
    cut_lengths(chunker, versions[0][: 4 * MiB])  # untimed warm-up
    cut_seconds, chunks = 0.0, 0
    for data in versions:
        pieces = []
        for segment in iter_segments([data]):
            started = time.perf_counter()
            lengths = cut_lengths(chunker, segment)
            cut_seconds += time.perf_counter() - started
            offset = 0
            for length in lengths:
                pieces.append(fingerprinter.chunk(segment[offset : offset + length]))
                offset += length
        chunks += len(pieces)
        system.backup(BackupStream(pieces))
    logical = sum(len(data) for data in versions)
    return cut_seconds, logical / chunks, system.report.stored_bytes / logical


def test_ablation_chunker(benchmark):
    """FastCDC (paper config) vs SeqCDC on 6 evolving versions of each
    corpus, cut in 4 MiB segments as the repository cuts them.  On random
    data SeqCDC runs at four ``min_size`` values, L = 6 throughout (the
    sweep that picked the default); on the others at the default contract.
    Cut MiB/s times ``cut_lengths`` alone; stored / logical is what
    HiDeStore keeps of all six versions."""
    rows = []

    def sweep():
        for corpus, size, draw in _CORPORA:
            versions = list(_evolving_versions(6, size, draw))
            configs = [("FastCDC", FastCDCChunker())]
            if corpus == "random":
                configs += [(f"SeqCDC, min {m}", SeqCDCChunker(m)) for m in (3072, 3584, 4096)]
            configs.append(("SeqCDC", SeqCDCChunker()))
            for label, chunker in configs:
                seconds, mean, stored = _chunk_versions(chunker, versions)
                rows.append([
                    corpus,
                    label,
                    getattr(chunker, "run", "-"),
                    f"{len(versions) * size / MiB / seconds:.0f}",
                    f"{mean:,.0f}",
                    f"{stored:.3f}",
                ])
        return len(rows)

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    table(
        ["corpus", "chunker", "L", "cut MiB/s", "mean chunk B", "stored/logical"],
        rows,
        title="Ablation — chunker (6 evolving versions per corpus, 4 MiB segments)",
    )
    picked = {(row[0], row[1]): row for row in rows}
    mean = lambda row: float(row[4].replace(",", ""))  # noqa: E731
    fastcdc, seqcdc = picked["random", "FastCDC"], picked["random", "SeqCDC"]
    # The default contract cuts faster than FastCDC, with a mean chunk
    # within 5 % of FastCDC's on the random stream ...
    assert float(seqcdc[3]) > float(fastcdc[3])
    assert abs(mean(seqcdc) - mean(fastcdc)) <= 0.05 * mean(fastcdc)
    for corpus, _size, _draw in _CORPORA:
        fastcdc, seqcdc = picked[corpus, "FastCDC"], picked[corpus, "SeqCDC"]
        # ... and on every corpus stores no more than FastCDC.  Runs of
        # nine or more equal bytes hold no cut, so source text cuts about
        # a quarter coarser; comparing raw bytes cut it twice as coarse, and
        # the low-entropy streams at max_size (EXPERIMENTS.md).
        assert float(seqcdc[5]) <= float(fastcdc[5])
        assert mean(seqcdc) <= 1.5 * mean(fastcdc)
