"""One ingest contract: every way into a repository stores the same bytes.

The same two-version tree is backed up through the library serially,
through ``hidestore backup --workers 3`` (a short-lived chunking pool),
through a daemon with a shared pool, and through a one-node cluster route.
Reports, every ``recipes/``, ``manifests/`` and ``containers/`` object, the
checkpoint (head and parts) and every restore must be identical across the
four — chunk boundaries depend on the byte stream alone, never on who
chunked it.
"""

import glob
import os
import random

import pytest

from repro.cli import build_parser, main
from repro.client import RemoteRepository
from repro.cluster import ClusterClient, ClusterHarness
from repro.engine import SEGMENT_BYTES, SharedChunkPool
from repro.repository import LocalRepository, read_tree, stream_blocks
from repro.server import DaemonThread

TENANT = "tenant"
TAGS = ("v1", "v2")
KINDS = ("recipes", "manifests", "containers")


def write_versions(root):
    """Two source trees under ``root/<tag>``; returns their ``read_tree`` rows.

    Files concatenate in name order: ``a`` ends just short of the first
    segment edge so ``b`` straddles it, ``big`` is larger than a whole
    segment (and crosses the second edge), ``tiny`` is smaller than any
    chunk.  Version 2 grows ``a`` (shifting every later file against the
    segment grid), rewrites ``b`` and adds a file.
    """
    rng = random.Random(18)
    files = {
        "a.bin": rng.randbytes(SEGMENT_BYTES - 100_000),
        "b.bin": rng.randbytes(300_000),
        "sub/big.bin": rng.randbytes(SEGMENT_BYTES + 300_000),
        "tiny.bin": b"seventeen bytes!!",
        "z.bin": rng.randbytes(200_000),
    }
    assert len(files["a.bin"]) < SEGMENT_BYTES < len(files["a.bin"]) + len(files["b.bin"])
    churned = dict(files)
    churned["a.bin"] = files["a.bin"] + rng.randbytes(50_000)
    churned["b.bin"] = rng.randbytes(300_000)
    churned["new.bin"] = rng.randbytes(120_000)
    trees = []
    for tag, content in zip(TAGS, (files, churned)):
        base = os.path.join(root, tag)
        for rel, data in content.items():
            path = os.path.join(base, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "wb") as handle:
                handle.write(data)
        trees.append(read_tree(base))
    return trees


def stored_objects(repo_dir):
    """``{kind/name: bytes}`` of everything a backup persisted by name."""
    objects = {}
    for kind in KINDS:
        for name in sorted(os.listdir(os.path.join(repo_dir, kind))):
            with open(os.path.join(repo_dir, kind, name), "rb") as handle:
                objects[f"{kind}/{name}"] = handle.read()
    for name in sorted(os.listdir(repo_dir)):  # the checkpoint head and its parts
        if name.startswith("checkpoint"):
            with open(os.path.join(repo_dir, name), "rb") as handle:
                objects[name] = handle.read()
    return objects


def restored(repo, versions):
    return [b"".join(bytes(b) for b in repo.restore(v)[1]) for v in versions]


def slabs_of_this_process():
    return glob.glob(f"/dev/shm/hidestore-ing-{os.getpid()}-*")


def test_serial_workers_daemon_and_cluster_store_identical_bytes(tmp_path, monkeypatch):
    trees = write_versions(str(tmp_path / "src"))
    outcome = {}  # mode -> (reports, stored objects, restores)

    serial_dir = str(tmp_path / "serial")
    repo = LocalRepository(serial_dir)
    reports = [repo.backup_tree(entries, tag) for entries, tag in zip(trees, TAGS)]
    # Objects are read before any restore: Algorithm 1 rewrites recipes.
    outcome["serial"] = (reports, stored_objects(serial_dir), restored(repo, [1, 2]))

    cli_dir = str(tmp_path / "cli")
    cli_reports, pools = [], []
    backup_tree = LocalRepository.backup_tree

    def spy(self, entries, tag=""):
        pools.append((self.ingest_pool, slabs_of_this_process()))
        cli_reports.append(backup_tree(self, entries, tag))
        return cli_reports[-1]

    monkeypatch.setattr(LocalRepository, "backup_tree", spy)
    for tag in TAGS:
        source = str(tmp_path / "src" / tag)
        assert main(["backup", cli_dir, source, "--tag", tag, "--workers", "3"]) == 0
    monkeypatch.undo()
    for pool, live_slabs in pools:
        assert isinstance(pool, SharedChunkPool) and pool.workers == 3
        assert live_slabs or not os.path.isdir("/dev/shm")
    # The short-lived pool's close() ran: no slab of ours outlives the call.
    assert slabs_of_this_process() == []
    outcome["--workers 3"] = (
        cli_reports, stored_objects(cli_dir), restored(LocalRepository(cli_dir), [1, 2])
    )

    with DaemonThread(str(tmp_path / "daemon"), ingest_workers=2) as address:
        with RemoteRepository(address, TENANT) as remote:
            reports = [remote.backup_tree(e, tag) for e, tag in zip(trees, TAGS)]
            objects = stored_objects(str(tmp_path / "daemon" / TENANT))
            outcome["daemon"] = (reports, objects, restored(remote, [1, 2]))

    with ClusterHarness(str(tmp_path / "cluster"), nodes=1, replicas=1) as cmap:
        with ClusterClient([cmap.nodes[0].address]) as client:
            routed = client.repo(TENANT)
            reports = [routed.backup_tree(e, tag) for e, tag in zip(trees, TAGS)]
            objects = stored_objects(os.path.join(cmap.nodes[0].root, TENANT))
            outcome["cluster"] = (reports, objects, restored(routed, [1, 2]))

    reports, objects, restores = outcome.pop("serial")
    assert restores == [b"".join(stream_blocks(entries)) for entries in trees]
    assert reports[1]["duplicate_chunks"] > 0  # the churn actually deduped
    # Nothing compared below is vacuously empty.
    # Active containers are container objects: ``containers/`` holds them.
    for kind in KINDS + ("checkpoint.json", "checkpoint-tables-"):
        assert any(name.startswith(kind) for name in objects), kind
    for mode, (mode_reports, mode_objects, mode_restores) in outcome.items():
        assert mode_reports == reports, mode
        assert sorted(mode_objects) == sorted(objects), mode
        for name, blob in objects.items():
            assert mode_objects[name] == blob, (mode, name)
        assert mode_restores == restores, mode


def test_pipeline_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(["backup", "repo", "src", "--pipeline"])
    assert exit_info.value.code == 2
    assert "--pipeline" in capsys.readouterr().err
