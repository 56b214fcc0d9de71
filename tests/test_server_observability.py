"""End-to-end observability tests: trace correlation, STATS metrics, CLI.

A real daemon runs with a :class:`JsonEventLogger` and an isolated
:class:`MetricsRegistry`; the client logs to its own file.  The tests then
join the two logs on trace IDs — the property the whole layer exists for.
"""

import os

import pytest

from repro.client import RemoteRepository
from repro.observability import JsonEventLogger, MetricsRegistry, read_jsonl
from repro.repository import materialize, read_tree
from repro.server import DaemonThread
from tests.conftest import wait_until


def make_tree(base, files):
    os.makedirs(base, exist_ok=True)
    for rel, payload in files.items():
        path = os.path.join(base, rel)
        os.makedirs(os.path.dirname(path) or base, exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(payload)
    return read_tree(base)


def synthetic_files(seed, count=3, size=30_000):
    import random

    rng = random.Random(seed)
    return {f"f{i}.bin": rng.randbytes(size) for i in range(count)}


@pytest.fixture
def observed_daemon(tmp_path):
    """Daemon with JSON event log + private registry; client with its own log."""
    server_log_path = str(tmp_path / "server.jsonl")
    client_log_path = str(tmp_path / "client.jsonl")
    registry = MetricsRegistry()
    server_log = JsonEventLogger(server_log_path, source="daemon")
    client_log = JsonEventLogger(client_log_path, source="client")
    thread = DaemonThread(
        str(tmp_path / "served"), metrics=registry, event_log=server_log
    )
    address = thread.start()
    client_registry = MetricsRegistry()
    repo = RemoteRepository(
        address, "alpha", event_log=client_log, metrics=client_registry
    )
    yield repo, registry, client_registry, server_log_path, client_log_path
    repo.close()
    thread.stop(drain_timeout=5)
    server_log.close()
    client_log.close()


def events_by_name(records, name):
    return [r for r in records if r["event"] == name]


def read_jsonl_until(path, name, count=1, timeout=5.0):
    """Read the log, waiting for ``count`` events named ``name``.

    The daemon writes ``{kind}_end`` *after* sending the reply, so the
    client can observe the response a beat before the event hits disk.
    """

    def enough():
        records = read_jsonl(path)
        return records if len(events_by_name(records, name)) >= count else None

    return wait_until(enough, timeout=timeout, interval=0.02)


class TestTraceCorrelation:
    def test_trace_ids_join_client_and_server_logs(self, observed_daemon, tmp_path):
        repo, _reg, _creg, server_log, client_log = observed_daemon
        entries = make_tree(str(tmp_path / "src"), synthetic_files(1))
        repo.backup_tree(entries, tag="v1")
        plan, data = repo.restore(1)
        materialize(plan, data, str(tmp_path / "out"))
        for _ in data:  # drain RESTORE_END so the client span closes
            pass
        repo.stats()

        server = read_jsonl_until(server_log, "stats_end")
        client = read_jsonl(client_log)

        # Every request kind logged begin+end on the server with one trace.
        for kind in ("backup", "restore", "stats"):
            begins = events_by_name(server, f"{kind}_begin")
            ends = events_by_name(server, f"{kind}_end")
            assert len(begins) == len(ends) >= 1
            assert [b["trace"] for b in begins] == [e["trace"] for e in ends]

        # The client logged the SAME trace IDs for its side of each span.
        server_backup = events_by_name(server, "backup_end")[0]["trace"]
        client_backup = events_by_name(client, "client_backup_end")[0]["trace"]
        assert server_backup == client_backup
        server_restore = events_by_name(server, "restore_end")[0]["trace"]
        client_restore = events_by_name(client, "client_restore_end")[0]["trace"]
        assert server_restore == client_restore

        # Request traces derive from the session trace ("<session>.<seq>").
        session = events_by_name(server, "session_open")[0]["trace"]
        assert server_backup.startswith(session + ".")

    def test_durations_logged_in_milliseconds(self, observed_daemon, tmp_path):
        repo, _reg, _creg, server_log, _client_log = observed_daemon
        entries = make_tree(str(tmp_path / "src"), synthetic_files(2))
        repo.backup_tree(entries)
        end = events_by_name(read_jsonl_until(server_log, "backup_end"), "backup_end")[0]
        assert end["duration_ms"] > 0
        assert end["repo"] == "alpha"

    def test_errors_logged_with_trace_and_class(self, observed_daemon, tmp_path):
        repo, _reg, _creg, server_log, client_log = observed_daemon
        entries = make_tree(str(tmp_path / "src"), synthetic_files(9))
        repo.backup_tree(entries)
        with pytest.raises(Exception):
            plan, data = repo.restore(999)  # no such version
            list(data)
        server_errors = events_by_name(
            read_jsonl_until(server_log, "restore_error"), "restore_error"
        )
        assert server_errors and server_errors[0]["error"] == "VersionNotFoundError"
        assert server_errors[0]["trace"]


class TestStatsMetrics:
    def test_stats_reply_carries_quantiles(self, observed_daemon, tmp_path):
        repo, _reg, _creg, _slog, _clog = observed_daemon
        entries = make_tree(str(tmp_path / "src"), synthetic_files(3))
        repo.backup_tree(entries, tag="v1")
        plan, data = repo.restore(1)
        for _ in data:
            pass
        stats = repo.stats()
        metrics = stats["metrics"]
        for name in ("server.backup_seconds", "server.restore_seconds"):
            snap = metrics["histograms"][name]
            assert snap["count"] >= 1
            assert snap["p50"] > 0
            assert snap["p50"] <= snap["p95"] <= snap["p99"]
        assert metrics["counters"]["server.requests_total"] >= 2
        # Engine/store stage timings land in the same (daemon) registry.
        assert metrics["histograms"]["repo.backup_seconds"]["count"] >= 1
        assert metrics["histograms"]["repo.chunking_seconds"]["count"] >= 1
        assert metrics["counters"]["server.ingest_bytes"] > 0

    def test_server_stats_and_single_repo_both_report_metrics(
        self, observed_daemon, tmp_path
    ):
        repo, _reg, _creg, _slog, _clog = observed_daemon
        entries = make_tree(str(tmp_path / "src"), synthetic_files(4))
        repo.backup_tree(entries)
        assert "metrics" in repo.stats()
        assert "metrics" in repo.server_stats()

    def test_client_side_metrics_recorded(self, observed_daemon, tmp_path):
        repo, _reg, client_registry, _slog, _clog = observed_daemon
        entries = make_tree(str(tmp_path / "src"), synthetic_files(5))
        repo.backup_tree(entries)
        repo.stats()
        snap = client_registry.snapshot()
        assert snap["histograms"]["client.backup_seconds"]["count"] == 1
        assert snap["histograms"]["client.stats_seconds"]["count"] == 1
        assert snap["histograms"]["client.connect_seconds"]["count"] >= 1


class TestMetricsReporter:
    def test_periodic_metrics_report_events(self, tmp_path):
        log_path = str(tmp_path / "server.jsonl")
        log = JsonEventLogger(log_path, source="daemon")
        thread = DaemonThread(
            str(tmp_path / "served"),
            metrics=MetricsRegistry(),
            event_log=log,
            metrics_interval=0.1,
        )
        address = thread.start()
        try:
            with RemoteRepository(address, "alpha") as repo:
                entries = make_tree(str(tmp_path / "src"), synthetic_files(6))
                repo.backup_tree(entries)
            read_jsonl_until(log_path, "metrics_report", count=2, timeout=10)
        finally:
            thread.stop(drain_timeout=5)
            log.close()
        reports = events_by_name(read_jsonl(log_path), "metrics_report")
        assert len(reports) >= 2
        assert "server.backup_seconds" in reports[-1]["metrics"]["histograms"]
        assert reports[-1]["server"]["requests"]["backup"] == 1


class TestCLI:
    def test_stats_metrics_flag_remote(self, tmp_path, capsys):
        from repro.cli import main

        thread = DaemonThread(str(tmp_path / "served"), metrics=MetricsRegistry())
        address = thread.start()
        try:
            src = str(tmp_path / "src")
            make_tree(src, synthetic_files(7))
            assert main(["backup", "t", src, "--remote", address]) == 0
            capsys.readouterr()
            assert main(["stats", "t", "--metrics", "--remote", address]) == 0
            out = capsys.readouterr().out
            assert "operation latency" in out
            assert "server.backup_seconds" in out
            assert "server.requests_total" in out
        finally:
            thread.stop(drain_timeout=5)

    def test_stats_metrics_flag_local(self, tmp_path, capsys):
        from repro.cli import main
        from repro.observability import get_registry

        src = str(tmp_path / "src")
        make_tree(src, synthetic_files(8))
        repo = str(tmp_path / "repo")
        assert main(["backup", repo, src]) == 0
        capsys.readouterr()
        assert main(["stats", repo, "--metrics"]) == 0
        out = capsys.readouterr().out
        # The local engine records into the process registry.
        assert "repo.backup_seconds" in out
        get_registry().reset()
