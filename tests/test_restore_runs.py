"""Restore runs: the engine's contiguous byte runs against the per-chunk oracle.

``restore_stream`` yields runs — entries that lie back to back in one
decoded container payload, merged into one slice — instead of one chunk per
recipe entry.  Against :func:`repro.restore.scheduler.execute_plan` over the
same plan, on a directory, ``sqlite://`` and fake-S3 (``?archive=``, the
ranged-read path where nothing merges):

* newest, oldest, one file, ``verify=True`` and ``workers=4`` restore the
  oracle's bytes and bill the oracle's container reads;
* every run covers whole entries of one container, and only runs cut out
  of a blob-decoded payload merge;
* a bit-flip inside a merged run still names the chunk it hit;
* nothing long-lived pins a whole blob: a sparse read copies its slots,
  and pool containers loaded from checkpoint parts own their bytes.
"""

from __future__ import annotations

import contextlib
import random

import pytest

from repro.engine.restore import restore_stream
from repro.errors import RestoreError
from repro.repository import LocalRepository
from repro.restore import execute_plan
from repro.storage.container_store import decode_container
from repro.storage.fake_s3 import FakeS3Server

#: Three versions: every file changes, so version 1's chunks go archival.
FILES = [
    {"a.bin": 900_000, "b.bin": 500_000, "c.bin": 300_000},
    {"a.bin": 900_000, "d.bin": 400_000},
    {"a.bin": 600_000, "e.bin": 700_000},
]


def version_files(index):
    rng = random.Random(70 + index)
    return {rel: rng.randbytes(size) for rel, size in FILES[index].items()}


def backed_up(spec):
    repo = LocalRepository(spec)
    for index in range(len(FILES)):
        files = version_files(index)
        repo.backup_blocks(list(files.values()), [(rel, len(d)) for rel, d in files.items()])
    return repo


@pytest.fixture(scope="module", params=["directory", "sqlite", "s3"])
def repo(request, tmp_path_factory):
    root = tmp_path_factory.mktemp(request.param)
    with contextlib.ExitStack() as stack:
        if request.param == "s3":
            server = stack.enter_context(FakeS3Server("127.0.0.1"))
            spec = f"file://{root}/hot?archive={server.url('bucket', 'runs')}"
        else:
            spec = str(root / "repo") if request.param == "directory" else f"sqlite://{root}/repo.db"
        repository = backed_up(spec)
        yield repository
        repository.storage.close()


def file_rows(entries, plan, name):
    """The entry range covering ``name`` (the oracle's own locator)."""
    offset = 0
    for rel, size in plan:
        if rel == name:
            break
        offset += size
    rows, position = [], 0
    for i, entry in enumerate(entries):
        if position < offset + size and position + entry.size > offset:
            rows.append(i)
        position += entry.size
    return slice(rows[0], rows[-1] + 1)


def runs_and_oracle(store, version, rows=None, **options):
    """(entries, runs, oracle bytes), asserting identical billing."""
    entries = store.resolved_restore_range(version, rows)
    before = store.io.snapshot()
    oracle = b"".join(
        chunk.data
        for chunk in execute_plan(
            entries, store.restore_scheduler().plan(entries), store._read_container
        )
    )
    billed = store.io.delta(before).container_reads
    before = store.io.snapshot()
    runs = list(restore_stream(store, version, rows=rows, **options))
    assert store.io.delta(before).container_reads == billed
    return entries, runs, oracle


CASES = {
    "newest": (3, None, {}),
    "oldest": (1, None, {}),
    "file": (1, "b.bin", {}),
    "verify": (1, None, {"verify": True}),
    "workers": (1, None, {"workers": 4}),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_runs_match_the_per_chunk_oracle(repo, case):
    version, name, options = CASES[case]
    store = repo._open()
    rows = None
    if name is not None:
        picked = file_rows(store.resolved_restore_range(version), repo.restore_plan(version), name)
        rows = lambda _entries: picked  # noqa: E731
    entries, runs, oracle = runs_and_oracle(store, version, rows, **options)
    assert b"".join(run.data for run in runs) == oracle
    at = 0
    for run in runs:
        covered = entries[at : at + run.entries]
        assert len({entry.cid for entry in covered}) == 1  # no run crosses a container
        assert len(run.data) == sum(entry.size for entry in covered)
        at += run.entries
    assert at == len(entries)
    if name is not None:
        assert b"".join(repo.restore(version, file=name)[1]) == version_files(version - 1)[name]


def test_only_blob_payloads_merge(repo):
    store = repo._open()
    entries, runs, _oracle = runs_and_oracle(store, 1)
    assert not any(entry.cid in store.pool for entry in entries)  # all archival
    if store.containers.backend.prefers_ranged_reads:
        assert len(runs) == len(entries)  # ranged reads: each chunk its own bytes
    else:
        assert len(runs) < len(entries) // 10


def test_a_bit_flip_inside_a_merged_run_names_its_chunk(tmp_path):
    repo = backed_up(str(tmp_path / "repo"))
    store = repo._open()
    entries = store.resolved_restore_range(1)
    at = 0
    for run in restore_stream(store, 1):
        if run.entries >= 3:
            break
        at += run.entries
    assert run.entries >= 3
    victim = entries[at + run.entries // 2]  # strictly inside the run
    path = tmp_path / "repo" / "containers" / f"container-{victim.cid:08d}.hdsc"
    blob = bytearray(path.read_bytes())
    container = decode_container(bytes(blob), victim.cid)
    blob[len(blob) - len(container.payload) + container.get(victim.fingerprint).offset] ^= 0x01
    path.write_bytes(bytes(blob))

    short = victim.fingerprint.hex()[:8]
    for workers in (1, 4):
        with pytest.raises(RestoreError, match=f"chunk recorded as {short} "):
            list(restore_stream(store, 1, verify=True, workers=workers))
    assert len(b"".join(run.data for run in restore_stream(store, 1))) == sum(
        entry.size for entry in entries
    )


def test_a_sparse_read_copies_its_slots_instead_of_pinning_the_blob(tmp_path):
    repo = backed_up(str(tmp_path / "repo"))
    store = repo._open()
    whole = list(restore_stream(store, 1))
    assert all(isinstance(run.data, memoryview) for run in whole)  # dense: views
    # c.bin is under a fifth of version 1's one archival container.
    picked = file_rows(store.resolved_restore_range(1), repo.restore_plan(1), "c.bin")
    runs = list(restore_stream(store, 1, rows=lambda _entries: picked))
    assert len(runs) == picked.stop - picked.start
    assert all(type(run.data) is bytes for run in runs)


def test_pool_containers_from_checkpoint_parts_own_their_bytes(tmp_path):
    backed_up(str(tmp_path / "repo"))
    store = LocalRepository(str(tmp_path / "repo"))._open()
    assert store.pool.container_count()
    for container in store.pool.iter_containers():
        assert container.payload is None
        assert all(type(slot.data) is bytes for _fp, slot in container.items())
