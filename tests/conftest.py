"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
import random
from typing import List

import pytest

from repro.chunking.stream import BackupStream, Chunk, synthetic_fingerprint
from repro.engine import iter_segments
from repro.storage.repo import RepoStorage
from repro.units import KiB
from repro.workloads import SyntheticWorkload, WorkloadSpec


#: A directory repository written by the code that still rewrote
#: ``R_previous`` (§4.3 in place): five versions of :func:`fixture_v2_bytes`
#: as ``a.bin`` (the first 20 KiB) + ``b.bin``, with positive and ``-k``
#: rows in R_1..R_4, no demotion maps, and ``expected.json``'s digests.
FIXTURE_V2 = os.path.join(os.path.dirname(__file__), "fixtures", "repo_v2_chained")


def fixture_v2_bytes(index: int) -> bytes:
    """Version ``index`` (0-based) of the 64 KiB file ``FIXTURE_V2`` holds."""
    data = bytearray(random.Random(29).randbytes(64 * 1024))
    for k in range(1, index + 1):
        offset = (k * 12 * 1024) % (48 * 1024)
        data[offset : offset + 10 * 1024] = random.Random(700 + k).randbytes(10 * 1024)
    return bytes(data)


def oracle_sizes(chunker, data: bytes) -> List[int]:
    """Cut lengths of ``data`` as ingest makes them: per 4 MiB segment,
    by the scalar chunker."""
    return [len(piece) for segment in iter_segments([data]) for piece in chunker.split(segment)]


def recipe_sizes(root: str, version_id: int) -> List[int]:
    """The chunk sizes ``version_id``'s recipe lists, read from disk."""
    storage = RepoStorage(root)
    try:
        return [entry.size for entry in storage.recipe_store().peek(version_id).entries]
    finally:
        storage.close()


def copy_objects(source_spec: str, target_spec: str) -> None:
    """Every replicable object of one repository, written into another."""
    from repro.storage.repo import SECTIONS, RepoStorage

    source, target = RepoStorage(source_spec), RepoStorage(target_spec)
    try:
        state = source.state()
        for kind, section in SECTIONS.items():
            for name in state[section]:
                target.write_object(kind, name, source.read_object(kind, name))
    finally:
        source.close()
        target.close()


def make_stream(tokens: List[int], tag: str = "", size: int = 1024) -> BackupStream:
    """A stream of synthetic chunks with fixed size, named by token."""
    return BackupStream(
        [Chunk(synthetic_fingerprint(t), size) for t in tokens], tag=tag
    )


def make_sized_stream(pairs: List[tuple], tag: str = "") -> BackupStream:
    """A stream of synthetic chunks from (token, size) pairs."""
    return BackupStream(
        [Chunk(synthetic_fingerprint(t), s) for t, s in pairs], tag=tag
    )


def algorithm_1_rows(twin) -> dict:
    """Every retained version's rows as Algorithm 1 resolves them.

    ``twin`` is a HiDeStore run through the same operations as the engine
    under test; its chain is flattened here (the paper's offline pass, over
    the chained views) and the flattened recipes read as the paper reads
    them: a positive CID is the container, anything else is in the active
    containers.
    """
    twin.run_maintenance()
    flattened = twin.chain.flatten()
    return {
        version: [
            (e.fingerprint, e.size, e.cid if e.cid > 0 else twin.pool.location[e.fingerprint])
            for e in flattened[version].entries
        ]
        for version in twin.version_ids()
    }


def resolved_rows(system) -> dict:
    """Every retained version's rows as ``system`` resolves them to restore."""
    return {
        version: [(e.fingerprint, e.size, e.cid) for e in system.resolved_entries(version)]
        for version in system.version_ids()
    }


def random_payload_stream(seed: int, chunks: int, mean: int = 2 * KiB) -> BackupStream:
    """A stream of payload-carrying chunks with random (seeded) contents."""
    from repro.chunking.fingerprint import Fingerprinter

    rng = random.Random(seed)
    fingerprinter = Fingerprinter()
    out = []
    for _ in range(chunks):
        size = rng.randint(mean // 2, mean * 3 // 2)
        data = rng.getrandbits(8 * size).to_bytes(size, "big")
        out.append(fingerprinter.chunk(data))
    return BackupStream(out)


@pytest.fixture
def small_workload() -> SyntheticWorkload:
    """A small deterministic evolving workload (8 versions, 400 chunks)."""
    return SyntheticWorkload(
        WorkloadSpec(
            name="test",
            versions=8,
            chunks_per_version=400,
            mean_chunk_size=4 * KiB,
            modify_rate=0.05,
            delete_rate=0.02,
            insert_rate=0.03,
            seed=7,
        )
    )


@pytest.fixture
def skip_workload() -> SyntheticWorkload:
    """A macos-like workload where some chunks skip exactly one version."""
    return SyntheticWorkload(
        WorkloadSpec(
            name="skiptest",
            versions=8,
            chunks_per_version=400,
            mean_chunk_size=4 * KiB,
            modify_rate=0.04,
            delete_rate=0.04,
            insert_rate=0.03,
            skip_rate=0.6,
            seed=11,
        )
    )
