"""Self-tests of the waterfall benchmark (tiny sizes; seconds, not minutes).

    python -m pytest benchmarks/waterfall -q
"""

import json
import os
import re
import shutil
import tempfile

import pytest

import run  # noqa: F401  (puts src/ on sys.path)
import compare
from repro.repository import LocalRepository
from wf_gen import GenParams
from wf_layers import PER_LAYER
from wf_pass import END_TO_END, WORKLOAD_BY_NAME, WORKLOADS, Pass
from wf_spans import Recorder, Span, install_layer_wraps

#: 1 MiB versions: about 130 chunks each, two ingest segments at most.
TINY = GenParams(version_mib=1, block_bytes=128 * 1024, insert_bytes=32 * 1024)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
EXACT = ("speed_factor_newest", "speed_factor_oldest", "stored_per_logical")


@pytest.fixture
def workdir():
    os.makedirs(run.WORK_ROOT, exist_ok=True)
    path = tempfile.mkdtemp(prefix="selftest-", dir=run.WORK_ROOT)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def tiny_pass(workdir, name="ingest-incremental", seed=7, tag="a"):
    return Pass(WORKLOAD_BY_NAME[name], seed, TINY, os.path.join(workdir, tag), quick=True)


def last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def declared():
    with open(os.path.join(run.REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
def test_same_seed_gives_same_digests_and_counts(workdir):
    outcomes = []
    for tag in ("a", "b"):
        one = tiny_pass(workdir, tag=tag)
        try:
            metrics = one.run_untraced(0.0)
            outcomes.append((one.version_digests(), [metrics[name] for name in EXACT],
                             one.attempted, one.failed))
        finally:
            one.cleanup()
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][3] == 0

    other = tiny_pass(workdir, seed=8, tag="c")
    try:
        other.run_untraced(0.0)
        assert other.version_digests() != outcomes[0][0]
        # The seed changes the bytes, never the schedule.
        assert other.attempted == outcomes[0][2]
    finally:
        other.cleanup()


def test_traced_counts_repeat_exactly(workdir):
    counts = []
    for tag in ("a", "b"):
        one = tiny_pass(workdir, tag=tag)
        try:
            metrics, recorder = one.run_traced()
        finally:
            one.cleanup()
        assert recorder.reconcile() < 1e-6
        assert abs(metrics["trace.roots_over_wall"] - 1.0) < 0.05
        assert 0.0 < metrics["repository.unattributed_share"] < 1.0
        counts.append({name: metrics[name] for name, unit, _b in PER_LAYER
                       if unit in ("count", "bytes") and name in metrics})
    assert counts[0] == counts[1]
    assert counts[0]["chunking.chunks"] > 0
    assert counts[0]["core.double_cache.lookups"] == counts[0]["chunking.chunks"]


# ----------------------------------------------------------------------
# Output checking
# ----------------------------------------------------------------------
def test_corrupted_restore_fails_the_run(monkeypatch, capsys):
    genuine = LocalRepository.restore

    def corrupted(self, version_id, **kwargs):
        plan, data = genuine(self, version_id, **kwargs)
        blocks = list(data)
        if kwargs.get("file") is not None:  # one flipped bit in single-file restores
            blocks[0] = bytes([blocks[0][0] ^ 1]) + blocks[0][1:]
        return plan, iter(blocks)

    monkeypatch.setattr(LocalRepository, "restore", corrupted)
    args = run.parse_args(["--workload", "ingest-incremental", "--seed", "3",
                           "--seconds", "0", "--trace", "0", "--quick"])
    status = run.single_pass(args, TINY)
    result = last_json(capsys)
    assert status != 0
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]


# ----------------------------------------------------------------------
# The span recorder
# ----------------------------------------------------------------------
def test_self_time_arithmetic_on_a_hand_built_tree():
    recorder = Recorder()

    def span(name, parent, busy, op=1):
        node = Span(name, op, parent, 0.0)
        node.busy = busy
        if parent is not None:
            parent.child_busy += busy
        recorder.spans.append(node)
        return node

    root = span("repository.backup", None, 10.0)
    chunking = span("chunking.split", root, 4.0)
    span("chunking.fingerprint", chunking, 1.0)
    span("core.double_cache.lookup", root, 3.0)
    other = span("repository.delete", None, 2.0, op=2)
    span("core.deletion.delete", other, 0.5, op=2)

    assert recorder.self_times() == {
        "repository.backup": 3.0, "chunking.split": 3.0, "chunking.fingerprint": 1.0,
        "core.double_cache.lookup": 3.0, "repository.delete": 1.5,
        "core.deletion.delete": 0.5,
    }
    assert recorder.reconcile() == 0.0
    assert [row["parent"] for row in recorder.dump()] == [None, 0, 1, 0, None, 4]


def test_recorder_folds_calls_and_times_iterators_by_busy_time():
    class Layer:
        def leaf(self):
            return 1

        def stream(self, n):
            for i in range(n):
                self.leaf()
                yield i

    recorder = Recorder()
    recorder.wrap(Layer, "leaf", "layer.leaf")
    recorder.wrap_iterator(Layer, "stream", "layer.stream")
    layer = Layer()
    layer.leaf()  # outside any operation: not recorded
    with recorder.root("op"):
        for _ in range(5):
            layer.leaf()
        assert list(layer.stream(3)) == [0, 1, 2]
        for _item in layer.stream(3):
            break  # abandoned early; the span still closes
    recorder.uninstall()

    by_name = {}
    for item in recorder.spans:
        by_name.setdefault(item.name, []).append(item)
    direct = [s for s in by_name["layer.leaf"] if s.parent.name == "op"]
    assert [s.calls for s in direct] == [5]
    assert len(by_name["layer.stream"]) == 2
    full = by_name["layer.stream"][0]
    assert [s.calls for s in by_name["layer.leaf"] if s.parent is full] == [3]
    assert full.busy <= full.end - full.start
    assert recorder.reconcile() < 1e-9
    assert "leaf" in vars(Layer) and Layer.leaf.__name__ == "leaf"


def test_every_wrapped_callable_is_restored_after_a_traced_pass(workdir):
    probe = Recorder()
    install_layer_wraps(probe)
    targets = [(owner, attr, stored) for owner, attr, stored in probe._patches]
    probe.uninstall()
    assert len(targets) >= 20

    one = tiny_pass(workdir)
    try:
        one.run_traced()
    finally:
        one.cleanup()
    for owner, attr, stored in targets:
        assert vars(owner)[attr] is stored, f"{owner.__name__}.{attr} left patched"


# ----------------------------------------------------------------------
# What is printed is what is declared
# ----------------------------------------------------------------------
def test_names_and_declarations_match_benchmark_json():
    spec = declared()
    for section in ("workloads", "end_to_end", "per_layer"):
        names = [row["name"] for row in spec[section]]
        assert len(names) == len(set(names))
        assert all(NAME.match(name) for name in names), section
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert spec["paths"] == ["benchmarks/waterfall"]


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_a_pass_prints_exactly_the_declared_metrics(trace, section, capsys):
    args = run.parse_args(["--workload", "ingest-incremental", "--seed", "5",
                           "--seconds", "0", "--trace", str(trace)])
    assert run.single_pass(args, TINY) == 0
    result = last_json(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    wanted = {row["name"]: row["unit"] for row in declared()[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


# ----------------------------------------------------------------------
# compare.py
# ----------------------------------------------------------------------
def _result(median, low, high, cpus=2, quick=False):
    row = {"median": median, "min": low, "max": high, "unit": "s"}
    return {"seed": 1, "quick": quick, "environment": {"cpus": cpus},
            "workloads": {"w": {"end_to_end": {"backup_p50_s": dict(row)}}}}


def test_compare_verdicts(tmp_path, capsys):
    bounds = {"backup_p50_s": {"name": "backup_p50_s", "bound": 0.10, "better": "lower"}}

    def verdict(base, other):
        return compare.compare(base, other, bounds)[0]["verdict"]

    steady = _result(1.0, 0.98, 1.02)
    assert verdict(steady, _result(1.05, 1.03, 1.07)) == "ok"
    assert verdict(steady, _result(1.20, 1.18, 1.22)) == "worse"
    assert verdict(steady, _result(0.70, 0.69, 0.71)) == "ok"
    assert verdict(steady, _result(1.0, 0.90, 1.10)) == "unresolved"
    assert verdict(steady, _result(1.0, 0.98, 1.02, cpus=8)) == "unmeasured"

    quick = tmp_path / "quick.json"
    quick.write_text(json.dumps(_result(1.0, 1.0, 1.0, quick=True)))
    full = tmp_path / "full.json"
    full.write_text(json.dumps(steady))
    assert compare.main([str(full), str(quick)]) == 2
    assert "not comparable" in capsys.readouterr().err
