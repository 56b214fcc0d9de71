"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
import random
from typing import List

import pytest

from repro.chunking.stream import BackupStream, Chunk, synthetic_fingerprint
from repro.client import RemoteRepository
from repro.cluster import ClusterClient
from repro.cluster.supervisor import ClusterHarness
from repro.engine import iter_segments
from repro.repository import LocalRepository
from repro.server import DaemonThread
from repro.storage.fake_s3 import FakeS3Server
from repro.storage.repo import SECTIONS, RepoStorage
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


def repo_state(spec: str) -> dict:
    """A repository's replicable objects by section (``RepoStorage.state``)."""
    storage = RepoStorage(spec)
    try:
        return storage.state()
    finally:
        storage.close()


def copy_objects(source_spec: str, target_spec: str) -> None:
    """Every replicable object of one repository, written into another."""
    source, target = RepoStorage(source_spec), RepoStorage(target_spec)
    try:
        state = source.state()
        for kind, section in SECTIONS.items():
            for name in state[section]:
                target.write_object(kind, name, source.read_object(kind, name))
    finally:
        source.close()
        target.close()


def stored_objects(spec: str) -> dict:
    """Every replicable object of the repository at ``spec``."""
    storage = RepoStorage(spec)
    try:
        if not storage.exists():
            return {}
        state = storage.state()
        return {
            (kind, name): storage.read_object(kind, name)
            for kind, section in SECTIONS.items() for name in state[section]
        }
    finally:
        storage.close()


# ----------------------------------------------------------------------
# The six surfaces of the Repository contract
# ----------------------------------------------------------------------
#: Local specs (``file://``, ``sqlite://``, fake S3, a mixed tier), a daemon
#: tenant and a routed tenant on three nodes with replicas=2.
SURFACES = ["file", "sqlite", "s3", "mixed", "remote", "routed"]


class Surface:
    """One way of reaching a tenant: its repository, the specs it is stored
    under, and the copy its writes land in (``primary``)."""

    def __init__(self, kind, open_repo, specs, primary):
        self.kind, self.open_repo, self.specs, self.primary = kind, open_repo, specs, primary

    @property
    def local(self) -> bool:
        return self.kind not in ("remote", "routed")

    def objects(self, tenant):
        return [stored_objects(spec) for spec in self.specs(tenant)]

    def exists(self, tenant):
        return any(RepoStorage(spec).exists() for spec in self.specs(tenant))


class Deployment:
    """Every surface the contract runs on, built once: a fake S3 server, a
    daemon, a three-node cluster with its router, and a mirror daemon that
    any tenant replicates to.  A daemon killed under a tenant is revived on
    its own port and root."""

    def __init__(self, root) -> None:
        self.root = root

    def __enter__(self) -> "Deployment":
        root = self.root
        self.s3 = FakeS3Server("127.0.0.1").__enter__()
        self.daemon = self.harness = self.client = self.mirror = None
        try:
            self.daemon = DaemonThread(str(root / "served"))
            self.address = self.daemon.start()
            self.harness = ClusterHarness(str(root / "cluster"), nodes=3, replicas=2)
            self.cmap = self.harness.start()
            self.client = ClusterClient([n.address for n in self.cmap.nodes], cluster_map=self.cmap)
            self.mirror = DaemonThread(str(root / "mirror"))
            self.mirror_address = self.mirror.start()
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        if self.client is not None:
            self.client.close()
        if self.harness is not None:
            self.harness.stop()
        for daemon in (self.daemon, self.mirror):
            if daemon is not None:
                daemon.stop(drain_timeout=5)
        self.s3.__exit__(*exc)

    def surface(self, kind: str) -> Surface:
        root = self.root
        if kind == "remote":
            served = lambda t: str(root / "served" / t)  # noqa: E731
            return Surface(kind, lambda t: RemoteRepository(self.address, t),
                           lambda t: [served(t)], served)
        if kind == "routed":
            return Surface(
                kind, self.client.repo,
                lambda t: [os.path.join(n.root, t) for n in self.cmap.nodes],
                lambda t: os.path.join(self.cmap.primary(t).root, t),
            )
        local = {
            "file": lambda t: f"file://{root}/file/{t}",
            "sqlite": lambda t: f"sqlite://{root}/sqlite/{t}.db",
            "s3": lambda t: self.s3.url("contract", t),
            "mixed": lambda t: f"file://{root}/mixed/{t}?archive=sqlite://{root}/mixed/{t}.db",
        }[kind]
        return Surface(kind, lambda t: LocalRepository(local(t)), lambda t: [local(t)], local)

    def daemon_of(self, kind: str, tenant: str):
        """The daemon thread that holds ``tenant``'s primary copy (``None``
        for a local surface)."""
        if kind == "remote":
            return self.daemon
        if kind == "routed":
            return self.harness.threads[self.cmap.primary(tenant).name]
        return None

    def revive(self, kind: str, tenant: str) -> None:
        """Start a fresh daemon where a killed one served ``tenant``."""
        if kind == "remote":
            self.daemon = DaemonThread(str(self.root / "served"), port=self.daemon.daemon.port)
            self.daemon.start()
        else:
            self.harness.restart_node(self.cmap.primary(tenant).name)


@pytest.fixture(scope="module")
def deployment(tmp_path_factory):
    with Deployment(tmp_path_factory.mktemp("surfaces")) as built:
        yield built


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
