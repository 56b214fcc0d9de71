"""End-to-end tests for the ``hidestore`` CLI."""

import os
import random

import pytest

from repro.cli import main


@pytest.fixture
def source_tree(tmp_path):
    rng = random.Random(5)
    src = tmp_path / "src"
    src.mkdir()
    (src / "sub").mkdir()
    for i in range(4):
        data = rng.getrandbits(8 * 20_000).to_bytes(20_000, "big")
        (src / f"f{i}.bin").write_bytes(data)
    (src / "sub" / "nested.bin").write_bytes(b"nested content" * 100)
    return src


def read_tree(root):
    out = {}
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            out[os.path.relpath(path, root)] = open(path, "rb").read()
    return out


class TestVerifyAndCheckpoint:
    def test_verify_clean_repo(self, tmp_path, source_tree, capsys):
        repo = str(tmp_path / "repo")
        main(["backup", repo, str(source_tree)])
        capsys.readouterr()
        assert main(["verify", repo]) == 0
        assert "OK" in capsys.readouterr().out

    def test_checkpoint_written_and_reused(self, tmp_path, source_tree, capsys):
        repo = str(tmp_path / "repo")
        main(["backup", repo, str(source_tree)])
        assert os.path.exists(os.path.join(repo, "checkpoint.json"))
        capsys.readouterr()
        # Second, identical backup is fully deduplicated via the checkpoint.
        main(["backup", repo, str(source_tree)])
        out = capsys.readouterr().out
        duplicates = int(out.split("(")[1].split(" ")[0])
        chunks = int(out.split(": ")[1].split(" ")[0])
        assert duplicates == chunks

    def test_verify_detects_damage(self, tmp_path, source_tree, capsys):
        repo = str(tmp_path / "repo")
        main(["backup", repo, str(source_tree)])
        main(["backup", repo, str(source_tree)])  # archives v1's containers
        containers = os.path.join(repo, "containers")
        victims = sorted(os.listdir(containers))
        if victims:
            os.remove(os.path.join(containers, victims[0]))
            capsys.readouterr()
            assert main(["verify", repo]) == 1


class TestStatsDetailAndCompression:
    def test_stats_detail_table(self, tmp_path, source_tree, capsys):
        repo = str(tmp_path / "repo")
        main(["backup", repo, str(source_tree)])
        capsys.readouterr()
        assert main(["stats", repo, "--detail"]) == 0
        out = capsys.readouterr().out
        assert "CFL" in out and "best sf" in out

    def test_compressed_repo_round_trips(self, tmp_path, capsys):
        src = tmp_path / "src"
        src.mkdir()
        (src / "text.log").write_bytes(b"very compressible line\n" * 5000)
        repo = str(tmp_path / "repo")
        assert main(["backup", repo, str(src), "--compress"]) == 0
        target = str(tmp_path / "out")
        assert main(["restore", repo, "1", target]) == 0
        assert (tmp_path / "out" / "text.log").read_bytes() == (src / "text.log").read_bytes()
        # Compressed container files are much smaller than the payload.
        containers = os.path.join(repo, "containers")
        on_disk = sum(
            os.path.getsize(os.path.join(containers, n)) for n in os.listdir(containers)
        )
        assert on_disk < 5000 * 23 / 5


class TestResearchTooling:
    def test_trace_generate_and_stats(self, tmp_path, capsys):
        trace = str(tmp_path / "k.trace")
        assert main(["trace-generate", "kernel", trace, "--versions", "5",
                     "--chunks", "200"]) == 0
        assert os.path.exists(trace)
        capsys.readouterr()
        assert main(["trace-stats", trace]) == 0
        out = capsys.readouterr().out
        assert "recommended depth" in out

    def test_observe(self, tmp_path, capsys):
        trace = str(tmp_path / "k.trace")
        main(["trace-generate", "kernel", trace, "--versions", "4", "--chunks", "150"])
        capsys.readouterr()
        assert main(["observe", trace, "--tags", "3"]) == 0
        out = capsys.readouterr().out
        assert "V1" in out and "v4" in out

    def test_simulate_to_csv(self, tmp_path, capsys):
        out_csv = str(tmp_path / "rows.csv")
        assert main([
            "simulate", "--schemes", "exact,hidestore", "--presets", "kernel",
            "--versions", "4", "--chunks", "150", "--container-size", "64KiB",
            "--output", out_csv,
        ]) == 0
        with open(out_csv) as handle:
            lines = handle.read().strip().splitlines()
        assert len(lines) == 3  # header + 2 rows
        assert lines[0].startswith("scheme,workload")


class TestErrorPaths:
    def test_backup_empty_source_fails(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["backup", str(tmp_path / "repo"), str(empty)]) == 1

    def test_restore_unknown_version_fails(self, tmp_path, source_tree):
        repo = str(tmp_path / "repo")
        main(["backup", repo, str(source_tree)])
        assert main(["restore", repo, "9", str(tmp_path / "out")]) == 1

    def test_delete_from_empty_repo_fails(self, tmp_path):
        repo = str(tmp_path / "repo")
        os.makedirs(os.path.join(repo, "recipes"), exist_ok=True)
        assert main(["delete-oldest", repo]) == 1
