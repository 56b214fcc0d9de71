"""One contract, six surfaces: every :class:`Repository` answers alike.

Each case runs on a local repository over ``file://``, ``sqlite://``, the
fake S3 server and a mixed tier (``?archive=``), on a daemon tenant
(:class:`RemoteRepository`) and on a routed cluster tenant
(:class:`RoutedRepository`, 3 nodes, replicas=2).  The deployments are
shared by the module; every test gets a fresh tenant.  The CLI test drives
the same commands against a local path, ``--remote`` and ``--cluster``.
"""

import itertools
import os
import random
import time

import pytest

from repro.cli import main
from repro.client import RemoteRepository
from repro.cluster import ClusterClient
from repro.cluster.supervisor import ClusterHarness
from repro.errors import (
    RepositoryNotFoundError,
    ReproError,
    RestoreError,
    VersionNotFoundError,
)
from repro.repository import LocalRepository, Repository, read_tree
from repro.server import DaemonThread
from repro.storage.fake_s3 import FakeS3Server
from repro.storage.repo import SECTIONS, RepoStorage

SURFACES = ["file", "sqlite", "s3", "mixed", "remote", "routed"]

#: Two versions of a small tree: v2 edits one file, drops one, adds one.
_rng = random.Random(17)
V1 = {f"d{i % 2}/f{i}.bin": _rng.randbytes(24_000 + 3_000 * i) for i in range(4)}
V2 = {k: v for k, v in V1.items() if k != "d1/f3.bin"}
V2["d0/f0.bin"] = V1["d0/f0.bin"][:10_000] + _rng.randbytes(5_000)
V2["new.bin"] = _rng.randbytes(9_000)

#: name -> (plan, length of the byte stream it claims to describe).
INCONSISTENT = {
    "overrun": ([("a", 100)], 50),
    "underrun": ([("c", 50)], 100),
    "negative size": ([("a", -5), ("b", 105)], 100),
    "duplicate name": ([("a", 10), ("a", 10)], 20),
}

_tenants = itertools.count(1)


def backup(repo, tree, tag=""):
    names = sorted(tree)
    return repo.backup_blocks([tree[n] for n in names], [(n, len(tree[n])) for n in names], tag)


def restored(repo, version_id, **knobs):
    plan, data = repo.restore(version_id, **knobs)
    return plan, b"".join(data)


def joined(tree):
    return b"".join(tree[name] for name in sorted(tree))


def stored_objects(spec):
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


class Surface:
    """One way of reaching a tenant: its repository and its stored specs."""

    def __init__(self, open_repo, specs):
        self.open_repo, self.specs = open_repo, specs

    def objects(self, tenant):
        return [stored_objects(spec) for spec in self.specs(tenant)]

    def exists(self, tenant):
        return any(RepoStorage(spec).exists() for spec in self.specs(tenant))


@pytest.fixture(scope="module")
def deployments(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    with FakeS3Server("127.0.0.1") as s3:
        daemon = DaemonThread(str(root / "served"))
        address = daemon.start()
        harness = ClusterHarness(str(root / "cluster"), nodes=3, replicas=2)
        try:
            cmap = harness.start()
            with ClusterClient([n.address for n in cmap.nodes], cluster_map=cmap) as client:
                yield root, s3, address, cmap, client
        finally:
            harness.stop()
            daemon.stop(drain_timeout=5)


@pytest.fixture(scope="module", params=SURFACES)
def surface(request, deployments):
    root, s3, address, cmap, client = deployments
    kind = request.param
    if kind == "remote":
        return Surface(
            lambda t: RemoteRepository(address, t),
            lambda t: [str(root / "served" / t)],
        )
    if kind == "routed":
        return Surface(client.repo, lambda t: [os.path.join(n.root, t) for n in cmap.nodes])
    local = {
        "file": lambda t: f"file://{root}/file/{t}",
        "sqlite": lambda t: f"sqlite://{root}/sqlite/{t}.db",
        "s3": lambda t: s3.url("contract", t),
        "mixed": lambda t: f"file://{root}/mixed/{t}?archive=sqlite://{root}/mixed/{t}.db",
    }[kind]
    return Surface(lambda t: LocalRepository(local(t)), lambda t: [local(t)])


@pytest.fixture
def tenant():
    return f"t{next(_tenants)}"


@pytest.fixture
def repo(surface, tenant):
    repository = surface.open_repo(tenant)
    yield repository
    # A routed handle shares the module's router: closing it must leave
    # the router usable by the next test.
    repository.close()


@pytest.fixture
def two_versions(repo):
    return [backup(repo, V1, "first"), backup(repo, V2, "second")]


@pytest.fixture(scope="module")
def reference_reports(tmp_path_factory):
    with LocalRepository(str(tmp_path_factory.mktemp("reference") / "repo")) as repo:
        return [backup(repo, V1, "first"), backup(repo, V2, "second")]


# ----------------------------------------------------------------------
# The contract
# ----------------------------------------------------------------------
def test_is_a_repository(repo):
    assert isinstance(repo, Repository)


def test_round_trip_with_tags(repo, two_versions):
    assert [(r["version_id"], r["tag"]) for r in repo.versions()] == [(1, "first"), (2, "second")]
    for version_id, tree in ((1, V1), (2, V2)):
        plan, data = restored(repo, version_id)
        assert plan == [(name, len(tree[name])) for name in sorted(tree)]
        assert data == joined(tree)


def test_same_stream_same_reports(two_versions, reference_reports):
    assert two_versions == reference_reports


def test_restore_each_file_of_the_oldest_version(repo, two_versions):
    for name in sorted(V1):
        assert restored(repo, 1, file=name) == ([(name, len(V1[name]))], V1[name])


def test_restore_knobs(repo, two_versions, surface):
    for knobs in ({}, {"workers": None}, {"workers": 1}, {"workers": 4, "readahead": 2},
                  {"workers": 2, "verify": True}):
        assert restored(repo, 1, **knobs)[1] == joined(V1), knobs
    for knobs in ({"workers": 0}, {"workers": 2, "readahead": 0}):
        with pytest.raises(RestoreError):
            repo.restore(1, **knobs)
        # Vetted before anything is opened or sent: a missing repository
        # still answers with the knob error.
        with surface.open_repo(f"t{next(_tenants)}") as missing:
            with pytest.raises(RestoreError):
                missing.restore(1, **knobs)


@pytest.mark.parametrize("case", sorted(INCONSISTENT))
def test_inconsistent_file_plans_are_refused(repo, surface, tenant, case):
    backup(repo, V1, "good")
    before, versions = surface.objects(tenant), repo.versions()
    plan, length = INCONSISTENT[case]
    with pytest.raises(ReproError):
        repo.backup_blocks([os.urandom(length)], plan, tag=case)
    assert surface.objects(tenant) == before
    assert repo.versions() == versions
    assert restored(repo, 1)[1] == joined(V1)
    assert backup(repo, V1)["version_id"] == 2


def test_deep_verify_document(repo, two_versions):
    doc = repo.verify(deep=True)
    assert doc["ok"] is True
    assert doc["issues"] == [] and doc["issues_total"] == 0
    assert doc["versions_checked"] == 2
    assert doc["entries_checked"] > 0 and doc["containers_checked"] > 0
    assert isinstance(doc["summary"], str) and doc["seconds"] >= 0


def test_delete_oldest_then_restore_what_remains(repo, two_versions):
    report = repo.delete_oldest()
    assert report["version_id"] == 1
    assert {"containers_deleted", "bytes_reclaimed", "delete_seconds"} <= set(report)
    assert [r["version_id"] for r in repo.versions()] == [2]
    assert restored(repo, 2)[1] == joined(V2)
    with pytest.raises(VersionNotFoundError):
        repo.restore(1)


def test_common_stats_keys(repo, two_versions):
    stats = repo.stats()
    assert stats["versions"] == 2
    assert stats["logical_bytes"] == len(joined(V1)) + len(joined(V2))
    assert 0 < stats["stored_bytes"] < stats["logical_bytes"]
    assert stats["dedup_ratio"] == pytest.approx(1 - stats["stored_bytes"] / stats["logical_bytes"])
    for key in ("containers_archival", "containers_active", "containers_read",
                "containers_written", "pending_maintenance"):
        assert isinstance(stats[key], int), key
    assert stats["chunker"]["name"] == "seqcdc"


def test_typed_errors(repo, two_versions):
    with pytest.raises(VersionNotFoundError):
        repo.restore(99)
    with pytest.raises(VersionNotFoundError, match="no file"):
        repo.restore(1, file="nope.bin")


def test_missing_repository_is_a_prompt_domain_answer(surface, tenant):
    with surface.open_repo(tenant) as missing:
        for operation in (
            missing.versions, missing.stats, lambda: missing.restore(1),
            lambda: missing.verify(deep=True), missing.delete_oldest,
        ):
            started = time.monotonic()
            with pytest.raises(RepositoryNotFoundError):
                operation()
            assert time.monotonic() - started < 1.0
    assert not surface.exists(tenant)


# ----------------------------------------------------------------------
# The CLI drives every target through the same commands
# ----------------------------------------------------------------------
@pytest.mark.parametrize("target", ["local", "remote", "cluster"])
def test_cli_cycle(target, deployments, tmp_path, capsys):
    root, _s3, address, cmap, _client = deployments
    seeds = ",".join(n.address for n in cmap.nodes)
    repo, flags, roots = {
        "local": (str(tmp_path / "repo"), [], [""]),
        "remote": (f"cli{next(_tenants)}", ["--remote", address], [str(root / "served")]),
        "cluster": (f"cli{next(_tenants)}", ["--cluster", seeds], [n.root for n in cmap.nodes]),
    }[target]
    for k, tree in enumerate((V1, V2), start=1):
        source = tmp_path / f"src{k}"
        for name, payload in tree.items():
            (source / name).parent.mkdir(parents=True, exist_ok=True)
            (source / name).write_bytes(payload)
        assert main(["backup", repo, str(source), "--tag", f"v{k}", *flags]) == 0
    assert main(["versions", repo, *flags]) == 0
    assert "tag='v2'" in capsys.readouterr().out
    assert main(["stats", repo, "--metrics", *flags]) == 0
    assert "dedup ratio" in capsys.readouterr().out
    out = tmp_path / "out"
    assert main(["restore", repo, "1", str(out), "--workers", "2", *flags]) == 0
    assert {rel: open(path, "rb").read() for rel, path in read_tree(str(out))} == V1
    assert main(["verify", repo, "--deep", *flags]) == 0
    assert main(["delete-oldest", repo, *flags]) == 0
    assert "deleted version 1" in capsys.readouterr().out
    # A misspelt repository is an error that creates nothing.
    missing = repo + "-typo"
    assert main(["versions", missing, *flags]) == 1
    assert "repository" in capsys.readouterr().err
    assert not any(os.path.exists(os.path.join(base, missing)) for base in roots)
