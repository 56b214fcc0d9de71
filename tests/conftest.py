"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random
from typing import List

import pytest

from repro.chunking.stream import BackupStream, Chunk, synthetic_fingerprint
from repro.units import KiB
from repro.workloads import SyntheticWorkload, WorkloadSpec


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
    under test; its chain is flattened here (the paper's offline pass) and
    its recipes read as flattened recipes read: a positive CID is the
    container, anything else is in the active containers.
    """
    twin.run_maintenance()
    twin.chain.flatten()
    return {
        version: [
            (e.fingerprint, e.size, e.cid if e.cid > 0 else twin.pool.location[e.fingerprint])
            for e in twin.recipes.peek(version).entries
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
