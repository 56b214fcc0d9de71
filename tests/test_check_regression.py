"""The benchmark regression gate's own rules (``benchmarks/check_regression.py``)."""

import importlib.util
import json
import os

import pytest

_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks", "check_regression.py",
)


@pytest.fixture
def gate(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("check_regression", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "BASELINE_DIR", str(tmp_path / "baselines"))
    os.makedirs(module.BASELINE_DIR)
    os.makedirs(tmp_path / "fresh")
    return module


def _write(directory, name, doc):
    with open(os.path.join(str(directory), f"BENCH_{name}.json"), "w") as handle:
        json.dump(doc, handle)


class TestCpuCountRule:
    def test_differing_cpu_counts_are_unmeasured_not_failed(self, gate, tmp_path, capsys):
        # A 3x "drop" that is only a 1-core baseline against a 4-core run.
        _write(tmp_path / "baselines", "restore_throughput_daemon",
               {"speedup_p50": 3.0, "cpu_count": 4})
        _write(tmp_path / "fresh", "restore_throughput_daemon",
               {"speedup_p50": 1.0, "cpu_count": 1})
        assert gate.check(str(tmp_path / "fresh")) == 0
        out = capsys.readouterr().out
        assert "UNMEASURED  restore_throughput_daemon.speedup_p50" in out
        assert "REGRESSION" not in out and "1 unmeasured" in out

    def test_same_cpu_count_still_gates(self, gate, tmp_path, capsys):
        # ``cpus`` and ``cpu_count`` are the same fact under two names.
        _write(tmp_path / "baselines", "restore_throughput_s3",
               {"speedup_p50": 3.0, "cpus": 2})
        _write(tmp_path / "fresh", "restore_throughput_s3",
               {"speedup_p50": 1.0, "cpu_count": 2})
        assert gate.check(str(tmp_path / "fresh")) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_unrecorded_cpu_count_compares_as_before(self, gate, tmp_path):
        _write(tmp_path / "baselines", "replication", {"seed_over_incremental_shipped": 10.0})
        _write(tmp_path / "fresh", "replication",
               {"seed_over_incremental_shipped": 9.5, "cpu_count": 8})
        assert gate.check(str(tmp_path / "fresh")) == 0

    def test_ceilings_do_not_depend_on_cpu_count(self, gate, tmp_path):
        assert gate.CEILING_METRICS["cluster_failover"]["failover_write_seconds"] == 10.0
        _write(tmp_path / "fresh", "cluster_failover",
               {"failover_write_seconds": 12.0, "cpu_count": 64})
        assert gate.check(str(tmp_path / "fresh")) == 1
