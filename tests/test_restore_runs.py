"""Restore runs: the engine's contiguous byte runs against the per-chunk oracle.

``restore_stream`` yields runs — entries that lie back to back in one
decoded container payload, merged into one slice — instead of one chunk per
recipe entry.  Against :func:`repro.restore.scheduler.execute_plan` over the
same plan, on a directory, ``sqlite://`` and fake-S3 (``?archive=``, the
ranged-read path):

* newest, oldest, one file, ``verify=True`` and ``workers=4`` restore the
  oracle's bytes and bill the oracle's container reads;
* every run covers whole entries of one container, and every payload
  merges: an archival one decoded from its blob or from the ranged path's
  joined spans (so ``sqlite://`` and S3 yield no more runs than a
  directory), and an active one in the pool — a newest restore yields one
  run per back-to-back span, not one per entry;
* a bit-flip inside a merged run still names the chunk it hit;
* nothing long-lived pins a whole blob: a sparse read copies its runs
  (each back-to-back span once, so they still merge), and pool containers
  loaded from a checkpoint each own one ``bytes`` payload;
* on a directory a dense read's runs are views of the mapped container
  file, and they stay whole after the file is unlinked; a newest restore's
  runs stay whole across the next backup, its demotion and compaction, and
  an expiry.
"""

from __future__ import annotations

import contextlib
import mmap
import random

import pytest

from repro.chunking.stream import BackupStream, Chunk, synthetic_fingerprint
from repro.core.hidestore import HiDeStore
from repro.engine.restore import restore_stream
from repro.errors import RestoreError
from repro.repository import LocalRepository
from repro.restore import execute_plan
from repro.storage.container_store import decode_container
from repro.storage.fake_s3 import FakeS3Server
from repro.units import KiB

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
    columns = store.resolved_restore_range(version, rows)
    before = store.io.snapshot()
    oracle = b"".join(
        chunk.data
        for chunk in execute_plan(
            columns.fingerprints,
            store.restore_scheduler().plan(columns.cids, columns.sizes),
            store._read_container,
        )
    )
    billed = store.io.delta(before).container_reads
    before = store.io.snapshot()
    runs = list(restore_stream(store, version, rows=rows, **options))
    assert store.io.delta(before).container_reads == billed
    return list(columns), runs, oracle


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


def test_archival_payloads_merge(repo):
    store = repo._open()
    entries, runs, _oracle = runs_and_oracle(store, 1)
    assert not any(entry.cid in store.pool for entry in entries)  # all archival
    assert len(runs) < len(entries) // 10  # ranged reads merge too


def back_to_back_spans(store, entries):
    """Stretches of consecutive entries lying back to back in one container."""
    spans, last = 0, None
    for entry in entries:
        holder = store.pool.peek(entry.cid) if entry.cid in store.pool else (
            store.containers.peek(entry.cid)
        )
        offset, size = holder.index[entry.fingerprint]
        if last != (entry.cid, offset):
            spans += 1
        last = (entry.cid, offset + size)
    return spans


def test_a_newest_restore_yields_one_run_per_back_to_back_span(repo):
    store = repo._open()
    entries, runs, oracle = runs_and_oracle(store, 3)
    assert all(entry.cid in store.pool for entry in entries)  # all active
    assert b"".join(run.data for run in runs) == oracle
    assert len(runs) == back_to_back_spans(store, entries) < len(entries) // 10


def test_a_bit_flip_inside_a_merged_run_names_its_chunk(tmp_path):
    repo = backed_up(str(tmp_path / "repo"))
    store = repo._open()
    entries = list(store.resolved_restore_range(1))
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
    blob[len(blob) - len(container.payload) + container.index[victim.fingerprint][0]] ^= 0x01
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
    assert all(isinstance(run.data.obj, mmap.mmap) for run in whole)  # dense: mapped views
    # c.bin is under a fifth of version 1's one archival container.
    picked = file_rows(store.resolved_restore_range(1), repo.restore_plan(1), "c.bin")
    _entries, runs, oracle = runs_and_oracle(store, 1, lambda _entries: picked)
    assert b"".join(run.data for run in runs) == oracle
    assert sum(run.entries for run in runs) == picked.stop - picked.start
    assert all(type(run.data) is bytes for run in runs)  # copies, not views of the blob


def test_pool_containers_from_checkpoint_parts_own_their_bytes(tmp_path):
    backed_up(str(tmp_path / "repo"))
    store = LocalRepository(str(tmp_path / "repo"))._open()
    assert store.pool.container_count()
    owners = [container.payload.obj for container in store.pool.iter_containers()]
    assert all(type(owner) is bytes for owner in owners)  # one object each, no mapping
    assert len({id(owner) for owner in owners}) == len(owners)


@pytest.fixture(scope="module")
def directory_repo(tmp_path_factory):
    repository = backed_up(str(tmp_path_factory.mktemp("mapped") / "repo"))
    yield repository
    repository.storage.close()


def run_counts(repository):
    store = repository._open()
    counts = {}
    for case in ("newest", "oldest", "file"):
        version, name, _options = CASES[case]
        rows = None
        if name is not None:
            picked = file_rows(
                store.resolved_restore_range(version), repository.restore_plan(version), name
            )
            rows = lambda _sizes, picked=picked: picked  # noqa: E731
        counts[case] = len(list(restore_stream(store, version, rows=rows)))
    return counts


def test_ranged_backends_yield_no_more_runs_than_a_directory(repo, directory_repo):
    ranged, mapped = run_counts(repo), run_counts(directory_repo)
    assert all(ranged[case] <= mapped[case] for case in mapped), (ranged, mapped)


def test_parallel_mapped_runs_equal_serial_ones(directory_repo):
    store = directory_repo._open()
    for version in (1, 3):
        serial = b"".join(run.data for run in restore_stream(store, version))
        parallel = list(restore_stream(store, version, workers=4))
        assert b"".join(run.data for run in parallel) == serial
        mapped = [getattr(run.data, "obj", None) for run in parallel]
        assert any(isinstance(obj, mmap.mmap) for obj in mapped) == (version == 1)


def test_runs_held_past_delete_oldest_stay_whole(tmp_path):
    repo = backed_up(str(tmp_path / "repo"))
    store = repo._open()
    entries, runs, oracle = runs_and_oracle(store, 1)
    assert any(isinstance(run.data.obj, mmap.mmap) for run in runs)
    cids = {entry.cid for entry in entries}
    repo.delete_oldest()  # version 1's own containers go
    containers = tmp_path / "repo" / "containers"
    assert not any((containers / f"container-{cid:08d}.hdsc").exists() for cid in cids)
    assert b"".join(run.data for run in runs) == oracle


def token_stream(tokens):
    """Chunks with real payloads, one per token (the same bytes every time)."""
    return BackupStream([
        Chunk(synthetic_fingerprint(t), len(data), data)
        for t in tokens for data in [random.Random(t).randbytes(700 + (t * 37) % 900)]
    ])


def test_newest_runs_held_across_a_backup_compaction_and_expiry_stay_whole():
    system = HiDeStore(container_size=64 * KiB, deferred_maintenance=True)
    system.backup(token_stream(range(0, 200)))
    system.backup(token_stream(range(100, 300)))
    runs = list(restore_stream(system, 2))  # the newest: served from the pool
    held = {id(run.data.obj) for run in runs if isinstance(run.data, memoryview)}
    assert held  # dense reads hand out views of the pool's buffers
    expected = b"".join(chunk.data for chunk in token_stream(range(100, 300)))

    system.backup(token_stream([*range(150, 250), *range(300, 400)]))
    assert system.run_maintenance() == 1  # demotes v2's cold rows, then compacts
    assert system.pool.stats.compactions and system.pool.stats.cold_chunks_moved
    pooled = {id(c.payload.obj) for c in system.pool.iter_containers()}
    assert held - pooled  # a held buffer's container left the pool
    system.delete_oldest()
    assert b"".join(run.data for run in runs) == expected
