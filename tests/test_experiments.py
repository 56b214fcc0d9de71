"""Tests for the experiment matrix runner and auto-flatten policy."""

import pytest

from repro.core import HiDeStore
from repro.experiments import (
    COLUMNS,
    DDFS_CACHE,
    read_csv,
    run_matrix,
    run_scheme,
    run_single,
    scheme_config,
    write_csv,
)
from repro.units import KiB
from repro.workloads import load_preset


class TestRunSingle:
    def test_returns_all_columns(self):
        row = run_single(
            "ddfs", "kernel", versions=6, chunks_per_version=300,
            container_size=64 * KiB,
        )
        assert set(COLUMNS) <= set(row)
        assert row["scheme"] == "ddfs"
        assert row["workload"] == "kernel"
        assert row["versions"] == 6
        assert 0.0 < row["dedup_ratio"] < 1.0
        assert row["speed_factor_last"] > 0

    def test_hidestore_gets_preset_history_depth(self):
        # macos chunks skip a version and return (§4.1): at depth 1 HiDeStore
        # re-stores them, at the preset's depth 2 it matches exact dedup.
        kwargs = dict(versions=6, chunks_per_version=300, container_size=64 * KiB)
        hidestore = run_single("hidestore", "macos", **kwargs)
        exact = run_single("exact", "macos", **kwargs)
        assert hidestore["dedup_ratio"] == exact["dedup_ratio"]

    def test_scheme_kwargs_forwarded(self):
        row = run_single(
            "capping", "kernel", versions=6, chunks_per_version=300,
            container_size=64 * KiB,
            scheme_kwargs=dict(rewriter_kwargs=dict(cap=2, segment_bytes=256 * KiB)),
        )
        baseline = run_single(
            "ddfs", "kernel", versions=6, chunks_per_version=300,
            container_size=64 * KiB,
        )
        assert row["dedup_ratio"] < baseline["dedup_ratio"]


class TestSchemeConfig:
    def test_section_5_1_values_reach_the_system(self):
        system = run_scheme("alacc", "kernel", versions=3, chunks=200,
                            container_size=64 * KiB)
        assert system.index.cache_containers == DDFS_CACHE
        assert system.rewriter.container_bytes == 64 * KiB
        assert system.restorer.total_bytes == 32 << 20

    def test_rewriters_cut_at_the_container_size(self):
        for name in ("cbr", "cfl", "fbw", "alacc"):
            config = scheme_config(name, container_size=128 * KiB)
            assert config["rewriter_kwargs"]["container_bytes"] == 128 * KiB


class TestRunMatrix:
    def test_full_grid(self):
        rows = run_matrix(
            {"ddfs": {}, "hidestore": {}},
            ["kernel", "gcc"],
            versions=5,
            chunks_per_version=250,
            container_size=64 * KiB,
        )
        assert len(rows) == 4
        assert {(r["scheme"], r["workload"]) for r in rows} == {
            ("ddfs", "kernel"), ("hidestore", "kernel"),
            ("ddfs", "gcc"), ("hidestore", "gcc"),
        }

    def test_progress_callback(self):
        seen = []
        run_matrix(
            {"exact": {}},
            ["kernel"],
            versions=4,
            chunks_per_version=200,
            container_size=64 * KiB,
            progress=seen.append,
        )
        assert len(seen) == 1


class TestCSV:
    def test_round_trip(self, tmp_path):
        rows = run_matrix(
            {"exact": {}},
            ["kernel"],
            versions=4,
            chunks_per_version=200,
            container_size=64 * KiB,
        )
        path = str(tmp_path / "out.csv")
        assert write_csv(rows, path) == 1
        loaded = read_csv(path)
        assert loaded[0]["scheme"] == "exact"
        assert abs(float(loaded[0]["dedup_ratio"]) - rows[0]["dedup_ratio"]) < 1e-9


class TestAutoFlatten:
    """Backups never flatten; Algorithm 1 runs when asked (or by a restore)."""

    def _run(self, flatten=False):
        system = HiDeStore(container_size=64 * KiB)
        for stream in load_preset("kernel", versions=6, chunks_per_version=300).versions():
            system.backup(stream)
        if flatten:
            system.chain.flatten()
        return system

    def test_disabled_leaves_chains(self):
        system = self._run()
        # Without flattening, R_1 points at R_2 (one hop).
        assert any(entry.cid == -2 for entry in system.chain.chained(1).entries)
        assert system.chain.stats.flatten_runs == 0

    def test_restores_identical_either_way(self):
        flattened = self._run(flatten=True)
        lazy = self._run()
        for version in flattened.version_ids():
            a = [c.fingerprint for c in flattened.restore_chunks(version)]
            b = [c.fingerprint for c in lazy.restore_chunks(version)]
            assert a == b

    def test_flatten_stats_recorded(self):
        system = self._run(flatten=True)
        assert system.chain.stats.flatten_runs == 1
