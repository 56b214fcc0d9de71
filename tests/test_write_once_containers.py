"""Every container is written once (paper §4.2 without a second copy).

An active container goes to the container store with the first checkpoint
after it stops growing, as the object it stays; when demotion finds every
chunk of it cold and nothing removed from it, it turns archival where it
is.  Pinned here:

* a fresh stream writes each unique byte once, and no checkpoint part
  holds a container;
* adoption reports exactly what the copy path reports, and restores read
  the same number of containers;
* deep verify still re-hashes an adopted container;
* a v4 head (active containers as parts) opens and restores, and its
  first save moves them into container objects and drops the parts;
* expiry counts the bytes it reclaims off the entry table, not the payload;
* an object a dead save left under an active ID is replaced, not refused.
"""

import hashlib
import json
import os
import random
import shutil
import pytest

from repro.core.chunk_filter import ActiveContainerPool
from repro.core.verify import container_name
from repro.observability import MetricsRegistry
from repro.repository import LocalRepository
from repro.errors import StorageError
from repro.storage.backend import SQLiteBackend
from repro.storage.container import Container
from repro.storage.container_store import BackendContainerStore
from repro.storage.repo import CHECKPOINT_NAME, RepoStorage
from repro.units import KiB
from tests.conftest import fixture_v2_bytes, repo_state

#: A directory repository written by the release whose head was
#: ``hidestore-checkpoint-v4``: four versions of :func:`fixture_v2_bytes`
#: (``a.bin`` = the first 20 KiB, then ``b.bin``), the oldest expired, one
#: active container stored as a ``checkpoint-active-*`` part.
FIXTURE_V4 = os.path.join(os.path.dirname(__file__), "fixtures", "repo_v4_parts")


def fresh_bytes(index):
    """Version ``index`` of a stream that shares nothing between versions."""
    return random.Random(900 + index).randbytes(200 * KiB)


def sha(data):
    return hashlib.sha256(data).hexdigest()


def open_repo(spec, **kwargs):
    return LocalRepository(spec, metrics=MetricsRegistry(), **kwargs)


def backup(repo, data):
    return repo.backup_blocks([data], [("data.bin", len(data))])


def restored_sha(repo, version_id):
    return sha(b"".join(repo.restore(version_id)[1]))


def head_of(spec):
    storage = RepoStorage(spec)
    try:
        return storage.read_checkpoint_document()
    finally:
        storage.close()


def part_names(spec):
    return sorted(set(repo_state(spec)["checkpoint"]) - {CHECKPOINT_NAME})


def test_a_fresh_stream_writes_each_unique_byte_once(tmp_path, monkeypatch):
    writes = []
    original = BackendContainerStore.write

    def spy(store, container, active=False):
        writes.append((container.container_id, container.used, active))
        return original(store, container, active)

    monkeypatch.setattr(BackendContainerStore, "write", spy)
    root = str(tmp_path / "repo")
    repo = open_repo(root)
    unique = sum(backup(repo, fresh_bytes(index))["stored_bytes"] for index in range(5))
    cids = [cid for cid, _used, _active in writes]
    assert len(cids) == len(set(cids)) == 5  # one object per container, once
    assert sum(used for _cid, used, _active in writes) == unique
    assert all(active for _cid, _used, active in writes)  # by a checkpoint, never by demotion
    assert not [name for name in os.listdir(root) if name.startswith("checkpoint-active-")]
    head = head_of(root)
    # Versions 1..4 went cold whole: each one's container is its archival one.
    assert head["deletion_tags"] == {str(v): [v] for v in range(1, 5)}
    assert [ref["cid"] for ref in head["active"]] == [5]
    stats = repo.stats()
    assert (stats["stored_bytes"], stats["containers_archival"], stats["containers_active"]) == (
        unique, 4, 1
    )
    assert repo._open().pool.stats.containers_adopted == 4
    assert repo._open().pool.stats.cold_bytes_moved == 0
    for version in range(1, 6):
        assert restored_sha(repo, version) == sha(fresh_bytes(version - 1))


def accounting(root, versions):
    """Per backup: what ``stats()`` and the engine's report say, and the
    container reads of restoring every version; then the same after a
    reopen, and whether the repository verifies after an expiry."""
    repo = open_repo(root)
    rows = []
    for data in versions:
        backup(repo, data)
        stats = repo.stats()
        rows.append((
            stats["stored_bytes"],
            stats["containers_archival"],
            stats["containers_active"],
            repo._open().report.per_version[-1].containers_written,
        ))
    reopened = open_repo(root)
    for version in range(1, len(versions) + 1):
        assert restored_sha(reopened, version) == sha(versions[version - 1])
    stats = reopened.stats()
    rows.append((stats["stored_bytes"], stats["containers_archival"], stats["containers_read"]))
    repo.delete_oldest()
    return rows, repo._open().pool.stats.containers_adopted, repo.verify(deep=True)["ok"]


@pytest.mark.parametrize("stream", ["fresh", "evolving"])
def test_adoption_reports_what_the_copy_path_reports(tmp_path, monkeypatch, stream):
    versions = [
        fresh_bytes(index) if stream == "fresh" or index % 2 else fixture_v2_bytes(index)
        for index in range(5)
    ]
    rows, adopted, ok = accounting(str(tmp_path / "adopted"), versions)
    assert adopted and ok
    # The copy path: demotion adopts nothing.
    monkeypatch.setattr(ActiveContainerPool, "adoptable", staticmethod(lambda *_args: False))
    assert accounting(str(tmp_path / "copied"), versions) == (rows, 0, True)


def test_deep_verify_catches_a_bit_flip_in_an_adopted_container(tmp_path):
    root = str(tmp_path / "repo")
    repo = open_repo(root)
    backup(repo, fresh_bytes(0))
    (active,) = head_of(root)["active"]
    backup(repo, fresh_bytes(1))
    assert head_of(root)["deletion_tags"] == {"1": [active["cid"]]}  # adopted, not copied
    name = container_name(active["cid"])
    path = RepoStorage(root).local_path("container", name)
    with open(path, "rb") as handle:
        blob = bytearray(handle.read())
    assert sha(bytes(blob)) == active["sha256"]  # the very object the checkpoint wrote
    blob[-100] ^= 0x01
    with open(path, "wb") as handle:
        handle.write(blob)
    report = open_repo(root).verify(deep=True)
    assert not report["ok"]
    assert any(name in issue and "re-hash" in issue for issue in report["issues"])


def test_a_v4_head_opens_restores_and_its_first_save_moves_the_parts(tmp_path):
    root = str(tmp_path / "repo")
    shutil.copytree(FIXTURE_V4, root)
    with open(os.path.join(root, "expected.json"), encoding="utf-8") as handle:
        expected = {int(version): digest for version, digest in json.load(handle).items()}
    assert expected == {i + 1: sha(fixture_v2_bytes(i)) for i in range(1, 4)}
    head = head_of(root)
    assert head["format"] == "hidestore-checkpoint-v4"
    legacy = [name for name in part_names(root) if name.startswith("checkpoint-active-")]
    assert legacy and legacy[0] in {ref["name"] for ref in head["parts"]}

    repo = open_repo(root)
    assert [v["version_id"] for v in repo.versions()] == [2, 3, 4]
    for version_id, digest in expected.items():
        assert restored_sha(repo, version_id) == digest
    assert repo.verify(deep=True)["ok"]
    assert head_of(root) == head and legacy[0] in part_names(root)  # reads do not upgrade

    data = fixture_v2_bytes(4)
    assert backup(repo, data)["version_id"] == 5
    expected[5] = sha(data)
    head = head_of(root)
    assert head["format"] == "hidestore-checkpoint-v5"
    assert not [name for name in part_names(root) if name.startswith("checkpoint-active-")]
    assert part_names(root) == sorted(ref["name"] for ref in head["parts"])
    for ref in head["active"]:
        path = RepoStorage(root).local_path("container", container_name(ref["cid"]))
        with open(path, "rb") as handle:
            blob = handle.read()
        assert (len(blob), sha(blob)) == (ref["size"], ref["sha256"])
    for reopened in (repo, open_repo(root)):
        for version_id, digest in expected.items():
            assert restored_sha(reopened, version_id) == digest
        assert reopened.verify(deep=True)["ok"]


@pytest.mark.parametrize("spec", ["directory", "sqlite", "compressed"])
def test_expiry_reclaims_the_bytes_it_counts_without_decoding_a_payload(
    tmp_path, monkeypatch, spec
):
    root = str(tmp_path / "repo") if spec != "sqlite" else f"sqlite://{tmp_path}/repo.db"
    repo = open_repo(root, compress=spec == "compressed")
    for index in range(4):
        backup(repo, fixture_v2_bytes(index) if index % 2 else fresh_bytes(index))
    engine = repo._open()
    tagged = engine.deletion.containers_for(1)
    assert tagged
    want = sum(engine.containers.peek(cid).used for cid in tagged)
    loads = []
    original = BackendContainerStore._load
    monkeypatch.setattr(
        BackendContainerStore, "_load", lambda store, cid: loads.append(cid) or original(store, cid)
    )
    report = repo.delete_oldest()
    assert report["bytes_reclaimed"] == want
    # A compressed object has no entry table to range-read: it is decoded.
    assert loads == (tagged if spec == "compressed" else [])


def filled(cid, chunks, size=512):
    container = Container(cid)
    for index in range(chunks):
        container.put(hashlib.sha1(b"%d/%d" % (cid, index)).digest(), size, bytes(size))
    return container


@pytest.mark.parametrize("chunks", [3, 1500])
def test_used_bytes_reads_the_entry_table_in_one_range_when_it_is_short(tmp_path, chunks):
    store = BackendContainerStore(SQLiteBackend(str(tmp_path / "c.db")))
    store.write(filled(1, chunks))
    ranges = []
    original = store.backend.get_range
    store.backend.get_range = lambda *args: ranges.append(args) or original(*args)
    assert store.used_bytes(1) == store.peek(1).used == chunks * 512
    assert len(ranges) == (1 if chunks == 3 else 2)


def test_an_object_a_dead_save_left_under_an_active_id_is_replaced(tmp_path):
    store = BackendContainerStore(SQLiteBackend(str(tmp_path / "c.db")))
    store.write(filled(1, 4), active=True)
    store.write(filled(2, 4))
    # Reopened on the old head: the pool holds 1 again, nothing names the object.
    reopened = BackendContainerStore(store.backend)
    reopened.active_ids.add(1)
    assert reopened.container_ids() == [2]  # not archival while the pool holds it
    smaller = filled(1, 3)
    ref = reopened.write(smaller, active=True)
    assert ref["size"] == len(reopened.read_object(1)) and reopened.peek(1).chunk_count == 3
    with pytest.raises(StorageError, match="container 2 already stored"):
        reopened.write(filled(2, 1), active=True)
    # Adopting one no save wrote, the copy path's way, replaces it too.
    reopened.active_ids.add(3)
    reopened.backend.put(reopened._name(3), b"debris")
    reopened.write(filled(3, 2))
    assert reopened.container_ids() == [2, 3] and reopened.peek(3).chunk_count == 2
