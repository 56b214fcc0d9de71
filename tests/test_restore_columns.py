"""Restore rows as columns: the column plan and cut against per-entry ones.

A restore carries its rows as three columns (fingerprints, sizes, CIDs)
from the recipe decode to the byte stream.  Against per-entry references
written here the way the engine worked over ``RecipeEntry`` rows:

* ``FAAScheduler.plan(cids, sizes)`` makes the per-entry plan — the same
  read order, CIDs, slots and emit bounds — for repeated and interleaved
  CIDs, areas small enough to cut a recipe many times, 0- and 1-row
  recipes and rows larger than the area (Hypothesis);
* ``_serve`` cuts a read into the per-entry cut's runs, byte for byte;
* whole, ``file=`` and ``workers=4`` restores on a directory and on
  ``sqlite://`` bill the container reads of the per-entry plan, in its
  order.
"""

from __future__ import annotations

import random
from typing import Dict, List

import pytest
from hypothesis import given, settings, strategies as st

from repro.chunking.stream import synthetic_fingerprint
from repro.engine.restore import _serve
from repro.observability import MetricsRegistry
from repro.repository import LocalRepository, _covering_rows
from repro.restore.scheduler import ContainerRead, FAAScheduler
from repro.storage.container import Container
from repro.storage.recipe import RecipeEntry


# ----------------------------------------------------------------------
# Per-entry references
# ----------------------------------------------------------------------
def per_entry_plan(entries: List[RecipeEntry], area_bytes: int) -> list:
    """FAA over entry objects: ``[(emit, [(cid, slots), ...]), ...]``."""
    spans = []
    needed: Dict[int, List[int]] = {}
    first = used = 0
    for i, entry in enumerate(entries):
        if used + entry.size > area_bytes and needed:
            spans.append((list(range(first, i)), [(c, tuple(s)) for c, s in needed.items()]))
            needed, first, used = {}, i, 0
        needed.setdefault(entry.cid, []).append(i)
        used += entry.size
    if needed:
        spans.append((list(range(first, len(entries))), [(c, tuple(s)) for c, s in needed.items()]))
    return spans


def column_plan(entries: List[RecipeEntry], area_bytes: int) -> list:
    plan = FAAScheduler(area_bytes).plan([e.cid for e in entries], [e.size for e in entries])
    return [(list(span.emit), [(r.cid, r.slots) for r in span.reads]) for span in plan]


def per_entry_cut(entries: List[RecipeEntry], slots, container: Container) -> list:
    """``(first entry, bytes, entries)`` per run, one entry at a time."""
    cuts = []
    first, begin, end, count = -1, 0, 0, 0
    for i in slots:
        start, size = container.index[entries[i].fingerprint]
        if i == first + count and start == end:
            end += size
            count += 1
            continue
        if count:
            cuts.append((first, begin, end, count))
        first, begin, end, count = i, start, start + size, 1
    if count:
        cuts.append((first, begin, end, count))
    payload = container.payload
    return [(first, bytes(payload[begin:end]), count) for first, begin, end, count in cuts]


# ----------------------------------------------------------------------
# The plan
# ----------------------------------------------------------------------
rows = st.lists(
    st.tuples(
        st.integers(1, 5),  # few CIDs: repeated and interleaved
        st.one_of(st.integers(0, 40), st.integers(41, 400)),  # some past the area
    ),
    max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(rows=rows, area_bytes=st.integers(1, 300))
def test_the_column_plan_is_the_per_entry_plan(rows, area_bytes):
    entries = [
        RecipeEntry(synthetic_fingerprint(i), size, cid) for i, (cid, size) in enumerate(rows)
    ]
    assert column_plan(entries, area_bytes) == per_entry_plan(entries, area_bytes)


@pytest.mark.parametrize("count", [0, 1])
def test_empty_and_single_row_recipes(count):
    entries = [RecipeEntry(synthetic_fingerprint(i), 900, 3) for i in range(count)]
    for area_bytes in (1, 900, 10_000):  # the one row: larger than, equal to, inside
        assert column_plan(entries, area_bytes) == per_entry_plan(entries, area_bytes)


# ----------------------------------------------------------------------
# The cut
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(
    chunks=st.integers(1, 12),
    recipe=st.lists(st.integers(0, 11), min_size=1, max_size=40),
    data=st.data(),
)
def test_serve_cuts_the_per_entry_runs(chunks, recipe, data):
    """A recipe of (possibly repeated, out-of-order) references to one
    container's chunks, any subset of its rows read: the column cut is the
    per-entry cut."""
    container = Container(7, capacity=1 << 20)
    rng = random.Random(chunks)
    for k in range(chunks):
        container.put(synthetic_fingerprint(k), 1 + k % 5, rng.randbytes(1 + k % 5))
    entries = [
        RecipeEntry(synthetic_fingerprint(k % chunks), 1 + (k % chunks) % 5, 7) for k in recipe
    ]
    slots = tuple(sorted(data.draw(st.sets(st.integers(0, len(entries) - 1), min_size=1))))
    served = _serve(
        [e.fingerprint for e in entries], ContainerRead(7, slots),
        lambda cid: container, None, None, MetricsRegistry(),
    )
    runs = [(first, bytes(run.data), run.entries) for first, run in served]
    assert runs == per_entry_cut(entries, slots, container)


# ----------------------------------------------------------------------
# Billing on real repositories
# ----------------------------------------------------------------------
def version_files(index):
    rng = random.Random(90 + index)
    base = random.Random(90).randbytes(600_000)
    edited = bytearray(base)
    for _ in range(index * 3):
        at = rng.randrange(len(edited) - 4096)
        edited[at : at + 4096] = rng.randbytes(4096)
    return {"a.bin": bytes(edited[:350_000]), "b.bin": bytes(edited[350_000:])}


@pytest.fixture(scope="module", params=["directory", "sqlite"])
def repo(request, tmp_path_factory):
    root = tmp_path_factory.mktemp(request.param)
    spec = str(root / "repo") if request.param == "directory" else f"sqlite://{root}/repo.db"
    repository = LocalRepository(spec, metrics=MetricsRegistry())
    for index in range(4):
        files = version_files(index)
        repository.backup_blocks(list(files.values()), [(n, len(d)) for n, d in files.items()])
    yield repository
    repository.storage.close()


def billed(store, restore):
    """The CIDs ``restore`` reads (whole or ranged), in order, and the
    reads it bills."""
    read, read_chunks, seen = store._read_container, store._read_container_chunks, []

    def whole(cid):
        seen.append(cid)
        return read(cid)

    def ranged(cid, fingerprints):
        container = read_chunks(cid, fingerprints)
        if container is not None:
            seen.append(cid)
        return container

    store._read_container, store._read_container_chunks = whole, ranged
    before = store.io.snapshot()
    try:
        restore()
    finally:
        del store._read_container, store._read_container_chunks
    return seen, store.io.delta(before).container_reads


@pytest.mark.parametrize("flavour", ["whole", "file", "workers"])
@pytest.mark.parametrize("version", [1, 4])
def test_restores_bill_the_per_entry_plans_reads(repo, flavour, version):
    store = repo._open()
    entries = list(store.resolved_restore_range(version))
    files = version_files(version - 1)
    if flavour == "file":  # b.bin's rows, as the restore locates them
        start, stop, _skip = _covering_rows(
            [e.size for e in entries], len(files["a.bin"]), len(files["b.bin"])
        )
        entries = entries[start:stop]
    area = store.restore_scheduler().area_bytes
    want = [cid for _emit, reads in per_entry_plan(entries, area) for cid, _slots in reads]

    options = {"file": {"file": "b.bin"}, "workers": {"workers": 4}}.get(flavour, {})
    seen, reads = billed(store, lambda: b"".join(repo.restore(version, **options)[1]))
    assert reads == len(want)
    if flavour != "workers":  # a pool finishes its reads in any order
        assert seen == want
    else:
        assert sorted(seen) == sorted(want)
    want_bytes = files["b.bin"] if flavour == "file" else b"".join(files.values())
    assert b"".join(repo.restore(version, **options)[1]) == want_bytes
