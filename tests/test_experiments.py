"""Tests for the experiment matrix runner and auto-flatten policy."""

import pytest

from repro.core import HiDeStore
from repro.experiments import COLUMNS, read_csv, run_matrix, run_single, write_csv
from repro.units import KiB
from repro.workloads import SyntheticWorkload, WorkloadSpec, load_preset


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
        row = run_single(
            "hidestore", "macos", versions=6, chunks_per_version=300,
            container_size=64 * KiB,
        )
        assert row["scheme"] == "hidestore"

    def test_accepts_prebuilt_workload(self):
        workload = SyntheticWorkload(
            WorkloadSpec(name="custom", versions=4, chunks_per_version=200, seed=5)
        )
        row = run_single("exact", workload, container_size=64 * KiB)
        assert row["workload"] == "custom"

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
