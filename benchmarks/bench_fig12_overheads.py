"""Figure 12 — HiDeStore overheads: recipe updates and chunk moving.

Measures the two overhead sources §5.4 reports:

* mean latency of updating one (previous) recipe after a version;
* latency of moving cold chunks to archival containers + merging sparse
  active containers.

The paper's update rewrites ``R_previous``.  Here recipes are write-once:
the update records the demoted map in memory and the next checkpoint save
writes it as one demotion part, so the first benchmark times that record
plus packing the part — no recipe is read or written.

These are real wall-clock timings via pytest-benchmark (the paper reports
e.g. 21 ms per kernel recipe at 414 MB versions; ours are smaller versions,
so proportionally faster — the claim being reproduced is that the overhead
is milliseconds-scale and bounded per version, not that it matches a number
measured on different hardware).
"""

import pytest

from common import CHUNKS_PER_VERSION, CONTAINER, all_presets, emit, run_scheme
from repro.chunking.stream import synthetic_fingerprint
from repro.core.checkpoint import pack_demoted
from repro.core.double_cache import CacheEntry
from repro.core.hidestore import HiDeStore
from repro.storage.recipe import ACTIVE_CID, Recipe
from repro.workloads import load_preset


@pytest.mark.parametrize("preset", all_presets())
def test_fig12_update_one_recipe(benchmark, preset):
    """Latency of the per-version previous-recipe update (§4.3): the map
    record plus its demotion part's bytes."""
    chunks = CHUNKS_PER_VERSION
    recipe = Recipe(1, "bench")
    for t in range(chunks):
        recipe.append(synthetic_fingerprint(t), 8192, ACTIVE_CID)
    moved = {synthetic_fingerprint(t): 5 for t in range(0, chunks, 20)}

    from repro.core.recipe_chain import RecipeChain
    from repro.storage.recipe import MemoryRecipeStore

    def update():
        store = MemoryRecipeStore()
        chain = RecipeChain(store)
        fresh = Recipe(1, "bench")
        for entry in recipe.entries:
            fresh.append(entry.fingerprint, entry.size, ACTIVE_CID)
        store.write(fresh)
        chain.update_previous(1, moved)
        return pack_demoted(chain.demoted[1])

    benchmark(update)
    emit(f"\nFigure 12 ({preset}) — update one recipe of {chunks} chunks: "
         f"see benchmark table (paper: ~21 ms for kernel at 50k chunks)")


@pytest.mark.parametrize("preset", all_presets())
def test_fig12_move_chunks(benchmark, preset):
    """Latency of demotion + compaction for one version's cold set."""
    workload = load_preset(preset, versions=6, chunks_per_version=CHUNKS_PER_VERSION)
    streams = workload.all_versions()

    def backup_five_then_move():
        system = HiDeStore(container_size=CONTAINER)
        for stream in streams[:5]:
            system.backup(stream)
        before_moves = system.pool.stats.move_seconds
        before_compact = system.pool.stats.compact_seconds
        system.backup(streams[5])  # includes one demotion + compaction
        return (
            system.pool.stats.move_seconds - before_moves,
            system.pool.stats.compact_seconds - before_compact,
        )

    move_s, compact_s = benchmark.pedantic(backup_five_then_move, rounds=3, iterations=1)
    emit(f"\nFigure 12 ({preset}) — move cold chunks: {move_s * 1000:.2f} ms, "
         f"merge sparse containers: {compact_s * 1000:.2f} ms")
    assert move_s < 0.5
    assert compact_s < 0.5


def test_fig12_deferred_maintenance_off_critical_path(benchmark):
    """§5.4: the chunk-moving can be processed offline (pipelined).

    Measures the backup critical path with maintenance inline vs deferred;
    deferred backups must be faster, and draining the queue afterwards must
    perform exactly the same filter work.
    """
    workload = load_preset("kernel", versions=10, chunks_per_version=CHUNKS_PER_VERSION)
    streams = workload.all_versions()

    def run(deferred):
        system = HiDeStore(container_size=CONTAINER, deferred_maintenance=deferred)
        for stream in streams:
            system.backup(stream)
        critical = sum(r.elapsed_seconds for r in system.report.per_version)
        system.run_maintenance()
        return critical, system

    def both():
        # Best-of-3 per mode: single wall-clock samples of ~40 ms totals are
        # too noisy for a strict comparison.
        inline_samples, deferred_samples = [], []
        inline_sys = deferred_sys = None
        for _ in range(3):
            seconds, inline_sys = run(False)
            inline_samples.append(seconds)
            seconds, deferred_sys = run(True)
            deferred_samples.append(seconds)
        return min(inline_samples), min(deferred_samples), inline_sys, deferred_sys

    inline_s, deferred_s, inline_sys, deferred_sys = benchmark.pedantic(
        both, rounds=1, iterations=1
    )
    emit(f"\nFigure 12 (§5.4, pipelined) — backup critical path (best of 3): "
         f"inline {inline_s * 1000:.1f} ms, deferred {deferred_s * 1000:.1f} ms "
         f"({inline_s / max(deferred_s, 1e-9):.2f}x)")
    # Deferred must not be slower beyond measurement noise; the hard
    # guarantee is that the filter work itself left the critical path.
    assert deferred_s < inline_s * 1.10
    assert (
        deferred_sys.pool.stats.cold_chunks_moved
        == inline_sys.pool.stats.cold_chunks_moved
    )


def test_fig12_flatten_whole_chain(benchmark):
    """Algorithm 1 over a full history: the chained views, flattened in
    memory (restores never run it)."""
    system = run_scheme("hidestore", "kernel")

    def flatten():
        return system.chain.flatten()

    benchmark(flatten)
    emit("\nFigure 12 — Algorithm 1 (flatten) timing in benchmark table.")
