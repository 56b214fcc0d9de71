"""The chunker is a recorded property of each repository.

A new repository cuts with SeqCDC; a repository whose head predates the
``chunker`` key (v3 and older) was cut with paper-config FastCDC and goes
on cutting with it.  Expected cut lengths here come from the scalar
oracle — ``chunker.split`` over the same fixed ingest segments the
repository uses — never from a stored run.
"""

import os
import random
import shutil
import threading

import pytest

from repro.chunking import FastCDCChunker, SeqCDCChunker, chunker_spec
from repro.client import RemoteRepository
from repro.core import HiDeStore
from repro.core.checkpoint import checkpoint_document, system_from_document
from repro.errors import ReproError
from repro.observability import MetricsRegistry
from repro.replication.session import ReplicationSession
from repro.replication.targets import LocalMirror
from repro.repository import LocalRepository
from repro.server import DaemonThread
from repro.storage.repo import RepoStorage
from tests.conftest import FIXTURE_V2, fixture_v2_bytes, oracle_sizes, recipe_sizes

FIXTURE_V1 = os.path.join(os.path.dirname(__file__), "fixtures", "repo_v1")

SEQCDC = chunker_spec(SeqCDCChunker())
FASTCDC = chunker_spec(FastCDCChunker())


def recipe_blob(root, version_id):
    storage = RepoStorage(root)
    try:
        return storage.read_object("recipe", f"recipe-{version_id:08d}.hdsr")
    finally:
        storage.close()


def head_chunker(root):
    storage = RepoStorage(root)
    try:
        return storage.read_checkpoint_document()["chunker"]
    finally:
        storage.close()


def open_repo(root, **kwargs):
    return LocalRepository(root, metrics=MetricsRegistry(), **kwargs)


def backup(repo, data, tag=""):
    return repo.backup_blocks([data], [("data.bin", len(data))], tag=tag)["version_id"]


def restored(repo, version_id):
    return b"".join(bytes(block) for block in repo.restore(version_id)[1])


def test_new_repository_cuts_with_seqcdc_and_says_so(tmp_path):
    root = str(tmp_path / "repo")
    os.makedirs(root)  # an empty repository: stats before the first backup
    repo = open_repo(root)
    assert repo.stats()["chunker"] == SEQCDC  # before the first backup, too
    data = random.Random(3).randbytes(300_000)
    assert backup(repo, data) == 1
    assert head_chunker(root) == SEQCDC
    assert recipe_sizes(root, 1) == oracle_sizes(SeqCDCChunker(), data)
    assert open_repo(root).stats()["chunker"] == SEQCDC


def test_v2_fixture_keeps_fastcdc_cuts_after_its_upgrade(tmp_path):
    root = str(tmp_path / "repo")
    shutil.copytree(FIXTURE_V2, root)
    repo = open_repo(root)
    assert repo.stats()["chunker"] == FASTCDC
    data = fixture_v2_bytes(5)
    plan = [("a.bin", 20 * 1024), ("b.bin", len(data) - 20 * 1024)]
    assert repo.backup_blocks([data], plan, tag="v6")["version_id"] == 6
    assert recipe_sizes(root, 6) == oracle_sizes(FastCDCChunker(), data)
    assert head_chunker(root) == FASTCDC
    # From the v4 head on, a reopened engine reads the chunker from it.
    reopened = open_repo(root)
    more = random.Random(5).randbytes(200_000)
    assert backup(reopened, more) == 7
    assert recipe_sizes(root, 7) == oracle_sizes(FastCDCChunker(), more)
    assert restored(open_repo(root), 7) == more


def test_repository_without_a_checkpoint_is_fastcdc(tmp_path):
    """Recipes but no head: written before heads existed, so by FastCDC."""
    root = str(tmp_path / "repo")
    shutil.copytree(FIXTURE_V1, root)
    os.remove(os.path.join(root, "checkpoint.json"))
    assert open_repo(root).stats()["chunker"] == FASTCDC


def test_head_formats_and_the_chunker_they_load():
    document = checkpoint_document(HiDeStore())
    head, read_part = document.head, document.new_parts.__getitem__

    def loaded(head):
        return chunker_spec(system_from_document(head, read_part=read_part).chunker)

    assert head["format"] == "hidestore-checkpoint-v5" and head["chunker"] == SEQCDC
    assert loaded(head) == SEQCDC
    assert loaded(dict(head, format="hidestore-checkpoint-v4")) == SEQCDC
    assert loaded(dict(head, chunker=FASTCDC)) == FASTCDC
    older = {key: value for key, value in head.items() if key != "chunker"}
    assert loaded(dict(older, format="hidestore-checkpoint-v3")) == FASTCDC
    for broken in (older, dict(head, chunker={"name": "tttd"})):
        with pytest.raises(ReproError):
            loaded(broken)


def test_daemon_pool_serves_a_legacy_and_a_new_tenant_at_once(tmp_path):
    """One process pool, two chunkers in flight: each tenant's recipe is
    the one its own inline path writes."""
    rng = random.Random(17)
    payloads = {
        "legacy": fixture_v2_bytes(5) + rng.randbytes(4_500_000),  # two segments
        "fresh": rng.randbytes(4_500_000),
    }
    served = tmp_path / "served"
    served.mkdir()
    inline = {}
    for tenant, data in payloads.items():
        root = str(tmp_path / "inline" / tenant)
        if tenant == "legacy":
            shutil.copytree(FIXTURE_V2, root)
            shutil.copytree(FIXTURE_V2, str(served / tenant))
        version = backup(open_repo(root), data)
        inline[tenant] = (version, recipe_blob(root, version))

    metrics = MetricsRegistry()
    with DaemonThread(str(served), ingest_workers=2, metrics=metrics) as address:
        start = threading.Barrier(len(payloads))
        results, errors = {}, []

        def run(tenant):
            remote = RemoteRepository(address, tenant)
            try:
                start.wait()
                results[tenant] = backup(remote, payloads[tenant])
                results[tenant, "stats"] = remote.stats()["chunker"]
            except BaseException as exc:  # surfaced below
                errors.append(exc)
            finally:
                remote.close()

        threads = [threading.Thread(target=run, args=(t,)) for t in payloads]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    assert not errors, errors
    assert metrics.snapshot()["counters"]["ingest.segments_total"] >= 4
    for tenant, (version, blob) in inline.items():
        assert results[tenant] == version
        assert recipe_blob(str(served / tenant), version) == blob
    assert results["legacy", "stats"] == FASTCDC
    assert results["fresh", "stats"] == SEQCDC


@pytest.mark.parametrize("kind", ["fresh", "legacy"])
def test_recorded_chunker_survives_a_mirror_sync_and_a_promotion(tmp_path, kind):
    source_root, mirror_root = str(tmp_path / "source"), str(tmp_path / "mirror")
    if kind == "legacy":
        shutil.copytree(FIXTURE_V2, source_root)
    source = open_repo(source_root)
    backup(source, random.Random(8).randbytes(150_000))
    spec = source.stats()["chunker"]
    assert spec == (FASTCDC if kind == "legacy" else SEQCDC)
    ReplicationSession(source_root, LocalMirror(mirror_root), journal="").run()
    assert head_chunker(mirror_root) == spec

    promoted = open_repo(mirror_root)
    assert promoted.stats()["chunker"] == spec
    data = random.Random(9).randbytes(250_000)
    version = backup(promoted, data)
    chunker = FastCDCChunker() if kind == "legacy" else SeqCDCChunker()
    assert recipe_sizes(mirror_root, version) == oracle_sizes(chunker, data)
    assert head_chunker(mirror_root) == spec
