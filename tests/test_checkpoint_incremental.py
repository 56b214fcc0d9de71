"""The v2 checkpoint: a small head plus write-once parts.

Five groups, in the order the format is argued in ``core/checkpoint.py``:

* the round trip — a system that reloads from its checkpoint after every
  version is indistinguishable from one that never stopped;
* what a save writes — an expiry the head alone, an unchanged state nothing
  but the head;
* the v1 reader — a committed v1 repository opens, restores, and is v2
  after its next backup (and the same seed still produces the recipes and
  archival containers the parent commit wrote);
* damage — a part that disagrees with the head is a typed error that names
  it, and ``verify`` reports it;
* every crash point of the new write order — and of one restore-triggered
  chain flatten — enumerated on ``sqlite://`` behind
  ``FaultInjectingBackend``;

then the replication planner's view of head and parts.
"""

import contextlib
import hashlib
import json
import os
import random
import shutil

import pytest

from repro.chaos.faults import FaultController
from repro.client import RemoteRepository
from repro.chunking.fingerprint import Fingerprinter
from repro.chunking.stream import BackupStream
from repro.core import HiDeStore, load_checkpoint, save_checkpoint
from repro.core.checkpoint import checkpoint_document, pack_tables, unpack_tables
from repro.core.double_cache import CacheEntry
from repro.errors import ReplicationError, ReproError
from repro.observability import MetricsRegistry
from repro.replication.repair import referenced_container_ids
from repro.replication.session import ReplicationSession
from repro.replication.state import capture_state, object_path
from repro.replication.targets import LocalMirror, RemoteMirror
from repro.repository import LocalRepository
from repro.server import DaemonThread
from repro.server.registry import RepositoryRegistry
from repro.storage import FileContainerStore, FileRecipeStore
from repro.storage.fake_s3 import FakeS3Server
from repro.storage.repo import CHECKPOINT_NAME, SECTIONS, RepoStorage
from repro.units import KiB

FIXTURE_V1 = os.path.join(os.path.dirname(__file__), "fixtures", "repo_v1")


def version_bytes(index):
    """Version ``index`` (0-based) of the evolving 96 KiB file the v1
    fixture was generated from: each version overwrites one more window."""
    data = bytearray(random.Random(19).randbytes(96 * 1024))
    for k in range(1, index + 1):
        offset = (k * 20 * 1024) % (80 * 1024)
        data[offset : offset + 12 * 1024] = random.Random(100 + k).randbytes(12 * 1024)
    return bytes(data)


def big_version_bytes(index):
    """The same shape at 5 MiB: more than one 4 MiB container is active, and
    the full one outlives the versions that only touch the other."""
    data = bytearray(random.Random(23).randbytes(5 * 1024 * 1024))
    for k in range(1, index + 1):
        offset = 4 * 1024 * 1024 + (k * 150 * 1024) % (800 * 1024)
        data[offset : offset + 100 * 1024] = random.Random(200 + k).randbytes(100 * 1024)
    return bytes(data)


def backup(repo, index, version=version_bytes):
    data = version(index)
    return repo.backup_blocks([data], [("data.bin", len(data))], tag=f"v{index + 1}")


def sha(data):
    return hashlib.sha256(data).hexdigest()


def restored_sha(repo, version_id):
    return sha(b"".join(repo.restore(version_id)[1]))


def open_repo(spec):
    return LocalRepository(spec, metrics=MetricsRegistry())


def head_of(spec):
    storage = RepoStorage(spec)
    try:
        return storage.read_checkpoint_document()
    finally:
        storage.close()


def part_names(spec):
    """Checkpoint parts present in the repository, whatever the head says."""
    return sorted(set(capture_state(spec)["checkpoint"]) - {CHECKPOINT_NAME})


def named_parts(spec):
    return sorted(ref["name"] for ref in head_of(spec)["parts"])


# ----------------------------------------------------------------------
# (a) Round trip
# ----------------------------------------------------------------------
def token_stream(tokens):
    fingerprinter = Fingerprinter()
    return BackupStream(
        [fingerprinter.chunk(random.Random(t).randbytes(900 + t % 700)) for t in tokens]
    )


#: Six versions over a shifting token window.  Tokens 40..79 sit out
#: version 3 and come back in version 4, so with ``history_depth=2`` chunks
#: are re-found in the older table and with depth 1 they are stored twice.
ROUND_TRIP_VERSIONS = [
    range(0, 120),
    range(20, 140),
    [*range(20, 40), *range(80, 180)],
    range(40, 200),
    range(60, 210),
    range(100, 230),
]


def stores(root):
    return (
        FileContainerStore(os.path.join(root, "c"), capacity=32 * KiB),
        FileRecipeStore(os.path.join(root, "r")),
    )


def fresh_system(root, history_depth, deferred):
    container_store, recipe_store = stores(root)
    return HiDeStore(
        container_store=container_store,
        recipe_store=recipe_store,
        history_depth=history_depth,
        container_size=32 * KiB,
        deferred_maintenance=deferred,
    )


def volatile_state(system):
    return {
        "pool": {
            container.container_id: {fp: slot.data for fp, slot in container.items()}
            for container in system.pool.iter_containers()
        },
        "pool order": [c.container_id for c in system.pool.iter_containers()],
        "location": dict(system.pool.location),
        "tables": [
            {fp: (entry.size, entry.cid) for fp, entry in table.items()}
            for table in system.cache.export_tables()
        ],
        "tags": {v: system.deletion.containers_for(v) for v in system.deletion.tagged_versions()},
        "allocator": system.containers.next_id,
        "next_version": system._next_version,
        "report": (
            system.report.versions,
            system.report.logical_bytes,
            system.report.stored_bytes,
            system.report.disk_index_lookups,
        ),
    }


@pytest.mark.parametrize(
    "history_depth, deferred", [(1, False), (2, False), (1, True)],
    ids=["depth1", "depth2", "deferred"],
)
def test_reloading_after_every_version_equals_never_stopping(tmp_path, history_depth, deferred):
    steady_root, resumed_root = str(tmp_path / "steady"), str(tmp_path / "resumed")
    steady = fresh_system(steady_root, history_depth, deferred)
    resumed = fresh_system(resumed_root, history_depth, deferred)
    steady_path = os.path.join(steady_root, "ckpt.json")
    resumed_path = os.path.join(resumed_root, "ckpt.json")
    for index, tokens in enumerate(ROUND_TRIP_VERSIONS):
        steady.backup(token_stream(tokens))
        save_checkpoint(steady, steady_path)  # same saves, never reloaded
        resumed.backup(token_stream(tokens))
        save_checkpoint(resumed, resumed_path)
        resumed = load_checkpoint(resumed_path, *stores(resumed_root))
        assert volatile_state(resumed) == volatile_state(steady), f"after version {index + 1}"
        assert resumed.deferred_maintenance == deferred
    assert len(steady.pool.container_ids()) >= 2
    assert steady.deletion.tagged_versions()
    for version_id, tokens in enumerate(ROUND_TRIP_VERSIONS, start=1):
        restored = [chunk.data for chunk in resumed.restore_chunks(version_id)]
        assert restored == [chunk.data for chunk in token_stream(tokens)]
    # Both wrote the same files: the head and part bytes are a function of
    # the state, not of whether the system was ever reloaded.
    names = sorted(n for n in os.listdir(steady_root) if n.startswith("c") and n != "c")
    assert names == sorted(n for n in os.listdir(resumed_root) if n.startswith("c") and n != "c")
    for name in names:
        with open(os.path.join(steady_root, name), "rb") as a:
            with open(os.path.join(resumed_root, name), "rb") as b:
                assert a.read() == b.read(), name


def test_tables_part_round_trips_and_rejects_damage():
    tables = [
        {bytes([i]) * 20: CacheEntry(1000 + i, 3 + i % 2) for i in range(5)},
        {},
        {bytes([200 + i]) * 20: CacheEntry(7, 9) for i in range(3)},
    ]
    blob = pack_tables(tables)
    assert len(blob) == 8 + 3 * 4 + 8 * 28
    assert unpack_tables(blob) == tables
    with pytest.raises(ReproError):
        unpack_tables(blob[:-5])
    with pytest.raises(ReproError):
        unpack_tables(b"nope" + blob[4:])
    with pytest.raises(ReproError, match="20 bytes"):
        pack_tables([{b"short": CacheEntry(1, 1)}])


def test_a_document_that_is_never_written_marks_nothing_stored(tmp_path):
    system = fresh_system(str(tmp_path), 1, False)
    system.backup(token_stream(range(0, 60)))
    first = checkpoint_document(system)
    assert first.new_parts and not system.pool.persisted and system.cache.persisted is None
    second = checkpoint_document(system)  # the first was dropped: pack again
    assert sorted(second.new_parts) == sorted(first.new_parts)


def test_a_mid_version_state_is_refused_though_no_boundary_marked_the_tables(tmp_path):
    """``dirty`` is set where a version boundary changes the tables, not per
    chunk; a half-classified version must be refused all the same."""
    system = fresh_system(str(tmp_path), 1, False)
    system.backup(token_stream(range(0, 60)))
    save_checkpoint(system, str(tmp_path / "ckpt.json"))
    assert not system.cache.dirty
    hot = next(iter(system.cache.export_tables()[-1]))
    assert system.cache.classify(hot) is not None  # T1 hit: promoted into T2
    assert not system.cache.dirty
    with pytest.raises(ReproError, match="mid-version"):
        checkpoint_document(system)


# ----------------------------------------------------------------------
# (b) What a save writes
# ----------------------------------------------------------------------
class Mutations:
    """Every mutating backend call, in order, via ``FaultController``.

    ``crash_after=n`` lets ``n`` mutations through and fails every later
    one with :class:`Crash` — the process is dead, nothing it would have
    done after that point happens, the rollback handlers included.
    """

    OPS = ("put", "put_meta", "rename", "delete")

    def __init__(self, controller, crash_after=None):
        self.log = []
        self.crash_after = crash_after
        for op in self.OPS:
            controller.arm("observe", op=op, count=-1, callback=self._on(op))

    def _on(self, op):
        def note(_url, name):
            if self.crash_after is not None and len(self.log) >= self.crash_after:
                raise Crash(f"dead before {op} {name}")
            self.log.append((op, name))

        return note


class Crash(BaseException):
    """Not an ``Exception``: nothing on the way out may swallow a death."""


@pytest.fixture
def controller():
    with FaultController(metrics=MetricsRegistry()) as installed:
        yield installed
        installed.disarm_all()


def is_part(name):
    return name.startswith("checkpoint-")


def test_expiry_writes_the_head_alone_and_an_unchanged_save_nothing_else(tmp_path, controller):
    repo = open_repo(f"sqlite://{tmp_path}/repo.db")
    for index in range(4):
        backup(repo, index, big_version_bytes)
    seen = Mutations(controller)
    repo.delete_oldest()
    puts = [(op, name) for op, name in seen.log if op in ("put", "put_meta")]
    assert puts == [("put_meta", CHECKPOINT_NAME)]
    assert not [name for op, name in seen.log if is_part(name)]  # nor deleted

    del seen.log[:]
    repo._save_checkpoint(repo._open())  # nothing changed since the last save
    assert seen.log == [("put_meta", CHECKPOINT_NAME)]

    del seen.log[:]
    before = set(named_parts(repo.root))
    backup(repo, 4, big_version_bytes)
    after = set(named_parts(repo.root))
    written = [name for op, name in seen.log if op == "put_meta" and is_part(name)]
    assert sorted(written) == sorted(after - before)  # only what is new ...
    assert before & after  # ... and an old active container was kept as is
    assert any(name.startswith("checkpoint-tables-") for name in written)
    dropped = [name for op, name in seen.log if op == "delete" and is_part(name)]
    assert sorted(dropped) == sorted(before - after)
    assert seen.log.index(("put_meta", CHECKPOINT_NAME)) > max(
        seen.log.index(("put_meta", name)) for name in written
    )
    assert all(
        seen.log.index(("delete", name)) > seen.log.index(("put_meta", CHECKPOINT_NAME))
        for name in dropped
    )
    assert part_names(repo.root) == sorted(after)


@pytest.mark.parametrize("committed", [0, 3], ids=["first backup", "fourth backup"])
def test_a_backup_that_fails_at_its_head_rolls_its_parts_back(tmp_path, controller, committed):
    spec = f"sqlite://{tmp_path}/repo.db"
    repo = open_repo(spec)
    for index in range(committed):
        backup(repo, index)
    before = capture_state(spec)
    seen = Mutations(controller)
    controller.arm("enospc", op="put_meta", match_name=CHECKPOINT_NAME, count=1)
    with pytest.raises(ReproError, match="ENOSPC"):
        backup(repo, committed)
    assert any(op == "put_meta" and is_part(name) for op, name in seen.log)
    controller.disarm_all()
    assert capture_state(spec) == before  # parts included: nothing unnamed is left
    assert backup(repo, committed)["version_id"] == committed + 1
    assert part_names(spec) == named_parts(spec)
    assert repo.verify(deep=True)["ok"]


def test_head_is_small_and_names_every_part(tmp_path):
    root = str(tmp_path / "repo")
    repo = open_repo(root)
    for index in range(3):
        backup(repo, index)
    head = head_of(root)
    assert head["format"] == "hidestore-checkpoint-v2"
    assert os.path.getsize(os.path.join(root, CHECKPOINT_NAME)) < 4096
    assert part_names(root) == named_parts(root)
    for ref in head["parts"]:
        with open(object_path(root, "checkpoint", ref["name"]), "rb") as handle:
            blob = handle.read()
        assert (len(blob), sha(blob)) == (ref["size"], ref["sha256"])
        assert ref["name"].rsplit(".", 1)[0].endswith(ref["sha256"][:16])


# ----------------------------------------------------------------------
# (c) The v1 reader
# ----------------------------------------------------------------------
def load_expected():
    with open(os.path.join(FIXTURE_V1, "expected.json"), encoding="utf-8") as handle:
        return {int(version): digest for version, digest in json.load(handle).items()}


def test_v1_fixture_opens_restores_and_is_v2_after_the_next_backup(tmp_path):
    root = str(tmp_path / "repo")
    shutil.copytree(FIXTURE_V1, root)
    assert head_of(root)["format"] == "hidestore-checkpoint-v1"
    expected = load_expected()
    assert expected == {i + 1: sha(version_bytes(i)) for i in range(3)}

    repo = open_repo(root)
    assert [v["version_id"] for v in repo.versions()] == [1, 2, 3]
    for version_id, digest in expected.items():
        assert restored_sha(repo, version_id) == digest
    assert repo.verify(deep=True)["ok"]
    assert head_of(root)["format"] == "hidestore-checkpoint-v1"  # reads do not upgrade

    assert backup(repo, 3)["version_id"] == 4
    head = head_of(root)
    assert head["format"] == "hidestore-checkpoint-v2"
    assert "active_containers" not in head and "cache_tables" not in head
    assert part_names(root) == named_parts(root) != []
    reopened = open_repo(root)
    for index in range(4):
        assert restored_sha(reopened, index + 1) == sha(version_bytes(index))
    assert reopened.verify(deep=True)["ok"]


def test_same_seed_still_writes_the_parents_recipes_and_containers(tmp_path):
    """The fixture *is* the parent commit's output for this seed: only how
    the volatile state is serialised changed, nothing under the head."""
    root = str(tmp_path / "repo")
    repo = open_repo(root)
    for index in range(3):
        backup(repo, index)
    for kind in ("containers", "recipes", "manifests"):
        names = sorted(os.listdir(os.path.join(FIXTURE_V1, kind)))
        assert sorted(os.listdir(os.path.join(root, kind))) == names
        for name in names:
            with open(os.path.join(FIXTURE_V1, kind, name), "rb") as want:
                with open(os.path.join(root, kind, name), "rb") as got:
                    assert got.read() == want.read(), f"{kind}/{name}"


# ----------------------------------------------------------------------
# (d) A part that disagrees with the head
# ----------------------------------------------------------------------
def flip_middle(blob):
    middle = len(blob) // 2
    return blob[:middle] + bytes([blob[middle] ^ 0xFF]) + blob[middle + 1 :]


@pytest.mark.parametrize(
    "damage, complaint",
    [
        (lambda blob: blob[:-7], "bytes"),
        (lambda blob: blob + b"x", "bytes"),
        (flip_middle, "sha256"),
        (None, "missing"),
    ],
    ids=["truncated", "grown", "bit flip", "deleted"],
)
@pytest.mark.parametrize("which", ["tables", "active"])
def test_a_part_that_disagrees_with_the_head_fails_the_open_by_name(
    tmp_path, which, damage, complaint
):
    root = str(tmp_path / "repo")
    repo = open_repo(root)
    for index in range(3):
        backup(repo, index)
    name = next(n for n in named_parts(root) if n.startswith(f"checkpoint-{which}-"))
    path = object_path(root, "checkpoint", name)
    if damage is None:
        os.remove(path)
    else:
        with open(path, "rb") as handle:
            blob = handle.read()
        with open(path, "wb") as handle:
            handle.write(damage(blob))

    with pytest.raises(ReproError) as caught:
        open_repo(root).versions()
    assert name in str(caught.value) and complaint in str(caught.value)
    report = open_repo(root).verify(deep=True)
    assert not report["ok"]
    assert report["issues"][0].startswith("repository unreadable: ")
    assert name in report["issues"][0]
    assert os.path.exists(path) == (damage is not None)  # a failed open sweeps nothing


# ----------------------------------------------------------------------
# Crash points of the new write order
# ----------------------------------------------------------------------
def copy_objects(source_spec, target_spec):
    source, target = RepoStorage(source_spec), RepoStorage(target_spec)
    try:
        state = source.state()
        for kind, section in SECTIONS.items():
            for name in state[section]:
                target.write_object(kind, name, source.read_object(kind, name))
    finally:
        source.close()
        target.close()


def build_v2(db, version=version_bytes, count=4):
    repo = open_repo(f"sqlite://{db}")
    for index in range(count):
        backup(repo, index, version)
    repo.storage.close()
    return {i + 1: sha(version(i)) for i in range(count)}


def build_v1(db):
    copy_objects(FIXTURE_V1, f"sqlite://{db}")
    return load_expected()


FLATTEN = "restore-triggered flatten"

SCENARIOS = {
    "incremental backup": (build_v2, lambda repo: backup(repo, 4), {5: sha(version_bytes(4))}),
    # 5 MiB: the head keeps naming a full active container it does not rewrite.
    "incremental backup, two active containers": (
        lambda db: build_v2(db, big_version_bytes),
        lambda repo: backup(repo, 4, big_version_bytes),
        {5: sha(big_version_bytes(4))},
    ),
    "delete_oldest": (build_v2, lambda repo: repo.delete_oldest(), {}),
    "v1 to v2 upgrade save": (build_v1, lambda repo: backup(repo, 3), {4: sha(version_bytes(3))}),
    # A reader's only writes: six backups nobody restored leave R_1..R_4
    # chained, and a fresh engine restoring version 1 runs Algorithm 1.
    FLATTEN: (lambda db: build_v2(db, count=6), lambda repo: restored_sha(repo, 1), {}),
}


def check_recovered(spec, digests, next_version_before):
    """Everything a reopened repository must satisfy, whatever killed the
    process that last wrote to it."""
    repo = open_repo(spec)
    listed = [v["version_id"] for v in repo.versions()]  # the open succeeds
    engine = repo._open()
    assert next_version_before <= engine._next_version <= next_version_before + 1
    assert listed and listed == list(range(listed[0], listed[-1] + 1))
    assert listed[-1] < engine._next_version
    for version_id in listed:
        assert restored_sha(repo, version_id) == digests[version_id], version_id
    # Whatever a dead flatten left half done, those restores finished: no
    # row chains to an older recipe (a dead backup's rewrite of the newest
    # may point past it, which reads "active" like ``-newest`` does).
    for version_id in listed:
        for entry in engine.recipes.peek(version_id).entries:
            assert entry.cid > 0 or -entry.cid >= listed[-1] or version_id == listed[-1]
    flat = capture_state(spec)["recipes"]
    for version in engine.deletion.tagged_versions():
        assert version in listed, f"tag of version {version} outlived its recipe"
        for cid in engine.deletion.containers_for(version):
            assert cid in engine.containers, f"tagged container {cid} is gone"
    assert set(repo.storage.manifest_ids()) >= set(listed)
    debris = set(part_names(spec)) - {ref["name"] for ref in head_of(spec).get("parts", ())}
    report = repo.verify(deep=True)
    assert report["ok"], report["issues"]
    # Reading judged no part: only a writer can know no sync is mid-flight.
    assert debris <= set(part_names(spec))
    # And it is not merely consistent but alive: the next backup commits,
    # and no unnamed part survives that writer's open.
    data = random.Random(4242).randbytes(40 * 1024)
    new = repo.backup_blocks([data], [("data.bin", len(data))])["version_id"]
    assert new == engine._next_version - 1 and restored_sha(repo, new) == sha(data)
    assert head_of(spec)["format"] == "hidestore-checkpoint-v2"
    assert part_names(spec) == named_parts(spec)
    assert sorted(repo.storage.manifest_ids()) == [*listed, new]
    assert open_repo(spec).verify(deep=True)["ok"]
    repo.storage.close()
    return flat


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_every_crash_point_recovers(tmp_path, controller, scenario, record_property):
    build, operation, new_digests = SCENARIOS[scenario]
    pristine = str(tmp_path / "pristine.db")
    digests = {**build(pristine), **new_digests}
    next_version_before = head_of(f"sqlite://{pristine}")["next_version"]

    def attempt(crash_after=None, torn=None):
        """One run of ``operation`` on a fresh copy; the mutations it got through."""
        db = str(tmp_path / f"crash-{crash_after}-{'torn' if torn else 'clean'}.db")
        shutil.copy(pristine, db)
        spec = f"sqlite://{db}"
        seen = Mutations(controller, crash_after)
        if torn is not None:  # armed after the observers: they count it first
            controller.arm("torn_write", op="put_meta", match_name=torn, count=1)
        repo = open_repo(spec)
        try:
            operation(repo)
        except (Crash, ReproError):
            assert crash_after is not None
        finally:
            controller.disarm_all()
            repo.storage.close()
        return spec, seen.log

    _, recorded = attempt()
    if scenario == FLATTEN:  # recipes and nothing else: a reader never writes the head
        assert len(recorded) == 4
        assert all(op == "put_meta" and "/recipe-" in name for op, name in recorded), recorded
    else:
        assert ("put_meta", CHECKPOINT_NAME) in recorded
    points = 0
    flattened = set()
    for done in range(len(recorded)):  # dies before mutation ``done`` (0-based)
        spec, log = attempt(crash_after=done)
        assert log == recorded[:done], "the run is not deterministic"
        flat = check_recovered(spec, digests, next_version_before)
        flattened.add(json.dumps(flat, sort_keys=True))
        points += 1
    for done, (op, name) in enumerate(recorded):  # dies tearing a part write
        if op == "put_meta" and is_part(name):
            spec, log = attempt(crash_after=done + 1, torn=name)
            assert log == recorded[: done + 1]
            assert name in part_names(spec)  # the torn blob did land
            check_recovered(spec, digests, next_version_before)
            points += 1
    spec, _ = attempt()  # and the run nothing killed
    flat = check_recovered(spec, digests, next_version_before)
    if scenario == FLATTEN:  # wherever it died, the next restore wrote the same recipes
        assert flattened == {json.dumps(flat, sort_keys=True)}
    record_property("crash_points", points)
    print(f"{scenario}: {points} crash points over {len(recorded)} mutations, all recovered")
    assert points >= len(recorded) + (1 if scenario not in ("delete_oldest", FLATTEN) else 0)


def test_a_lost_middle_recipe_is_not_mistaken_for_an_interrupted_expiry(tmp_path):
    """Only the oldest version is ever expired, so only a tag older than
    every retained recipe is one: a recipe lost mid-chain must cost no
    container, or one lost recipe becomes several unrestorable versions."""
    root = str(tmp_path / "repo")
    repo = open_repo(root)
    for index in range(6):
        backup(repo, index)
    tags = head_of(root)["deletion_tags"]
    assert tags["3"] and sorted(map(int, tags)) == [1, 2, 3, 4, 5]
    lost = object_path(root, "recipe", "recipe-00000003.hdsr")
    with open(lost, "rb") as handle:
        blob = handle.read()
    os.remove(lost)
    stored = capture_state(root)["containers"]

    damaged = open_repo(root)
    assert [v["version_id"] for v in damaged.versions()] == [1, 2, 4, 5, 6]
    report = damaged.verify(deep=True)  # a fresh open of its own
    assert not report["ok"] and any("R_3" in issue for issue in report["issues"])
    assert capture_state(root)["containers"] == stored
    assert damaged._open().deletion.tagged_versions() == [1, 2, 3, 4, 5]
    storage = RepoStorage(root)
    assert referenced_container_ids(storage) >= {int(cid) for cid in tags["3"]}

    with open(lost, "wb") as handle:  # repaired, from a mirror say: nothing else was lost
        handle.write(blob)
    repaired = open_repo(root)
    for index in range(6):
        assert restored_sha(repaired, index + 1) == sha(version_bytes(index))
    assert repaired.verify(deep=True)["ok"]


# ----------------------------------------------------------------------
# (e) Replication sees head and parts
# ----------------------------------------------------------------------
def ships_of(session):
    return sorted((action.kind, action.name) for action in session.plan().ships)


def test_sync_ships_the_head_alone_after_an_expiry_and_skips_unchanged_parts(tmp_path):
    source_root, mirror_root = str(tmp_path / "source"), str(tmp_path / "mirror")
    source = open_repo(source_root)
    for index in range(4):
        backup(source, index, big_version_bytes)
    session = ReplicationSession(source_root, LocalMirror(mirror_root), journal="")
    first = session.run()
    assert first.committed and ships_of(session) == []
    assert capture_state(mirror_root) == capture_state(source_root)

    source.delete_oldest()
    assert ships_of(session) == [("checkpoint", CHECKPOINT_NAME)]
    report = session.run()
    assert report.objects_shipped == 1 and report.bytes_shipped < 4096
    assert report.objects_deleted >= 3  # recipe, manifest, tagged container(s)
    assert capture_state(mirror_root) == capture_state(source_root)

    before = set(named_parts(source_root))
    backup(source, 4, big_version_bytes)
    after = set(named_parts(source_root))
    assert before & after and after - before
    plan = session.plan()
    shipped_parts = {a.name for a in plan.ships if a.kind == "checkpoint"} - {CHECKPOINT_NAME}
    assert shipped_parts == after - before  # every unchanged part is skipped
    assert all(not a.staged for a in plan.ships if a.name in shipped_parts)
    head_ship = next(a for a in plan.ships if a.name == CHECKPOINT_NAME)
    assert head_ship.staged and plan.ships[-1] is head_ship
    assert plan.renames[-1].name == CHECKPOINT_NAME
    stale = [ref.name for ref in plan.deletes if ref.kind == "checkpoint"]
    assert sorted(stale) == sorted(before - after) and plan.deletes[-len(stale) :] == [
        ref for ref in plan.deletes if ref.kind == "checkpoint"
    ]
    session.run()
    assert capture_state(mirror_root) == capture_state(source_root)
    mirror = open_repo(mirror_root)
    for index in range(1, 5):
        assert restored_sha(mirror, index + 1) == sha(big_version_bytes(index))
    assert mirror.verify(deep=True)["ok"]


def land_without_commit(source_root, mirror_target, plan):
    """Ship everything a plan ships; the commit is the caller's to send."""
    storage = RepoStorage(source_root)
    for action in plan.ships:
        blob = storage.read_object(action.kind, action.name)
        mirror_target.put(action.kind, action.name, blob, staged=action.staged)


def synced_pair(tmp_path):
    source_root, mirror_root = str(tmp_path / "source"), str(tmp_path / "mirror")
    source = open_repo(source_root)
    for index in range(3):
        backup(source, index)
    mirror_target = LocalMirror(mirror_root)
    session = ReplicationSession(source_root, mirror_target, journal="")
    session.run()
    return source, mirror_root, mirror_target, session


def test_mirror_promoted_mid_sync_opens_on_its_old_head(tmp_path):
    source, mirror_root, mirror_target, session = synced_pair(tmp_path)
    old_head = head_of(mirror_root)

    backup(source, 3)
    source.delete_oldest()
    land_without_commit(source.root, mirror_target, session.plan())  # no commit comes
    landed = part_names(mirror_root)
    assert set(landed) > set(named_parts(mirror_root))

    promoted = open_repo(mirror_root)
    assert [v["version_id"] for v in promoted.versions()] == [1, 2, 3]
    for index in range(3):
        assert restored_sha(promoted, index + 1) == sha(version_bytes(index))
    assert promoted.verify(deep=True)["ok"]
    assert head_of(mirror_root) == old_head
    assert part_names(mirror_root) == landed  # reading sweeps nothing

    # Its first write as a primary does: the landed parts are debris now.
    data = random.Random(7).randbytes(30 * 1024)
    assert promoted.backup_blocks([data], [("data.bin", len(data))])["version_id"] == 4
    assert part_names(mirror_root) == named_parts(mirror_root)
    assert promoted.verify(deep=True)["ok"]


@contextlib.contextmanager
def mirror_of_kind(kind, tmp_path):
    """``(mirror root, replication target, open_reader)`` for one kind of mirror."""
    if kind == "daemon":
        with DaemonThread(str(tmp_path / "served")) as address:
            target = RemoteMirror(address, "mirror")
            try:
                yield str(tmp_path / "served" / "mirror"), target, lambda: RemoteRepository(
                    address, "mirror"
                )
            finally:
                target.close()
        return
    root = str(tmp_path / "mirror") if kind == "directory" else f"sqlite://{tmp_path}/mirror.db"
    yield root, LocalMirror(root), lambda: open_repo(root)


@pytest.mark.parametrize("kind", ["directory", "sqlite", "daemon"])
def test_reads_on_the_mirror_between_the_part_puts_and_the_commit_keep_the_parts(tmp_path, kind):
    """The daemon lands ``REPLICATE_PUT`` objects under the tenant's read
    lock, so restores, ``versions`` and ``verify`` (always a fresh engine)
    run on the mirror while a sync's parts and manifest are in place and
    its recipe and head are not: the commit must still find all of them."""
    source_root = str(tmp_path / "source")
    source = open_repo(source_root)
    for index in range(3):
        backup(source, index)
    with mirror_of_kind(kind, tmp_path) as (mirror_root, mirror_target, open_reader):
        session = ReplicationSession(source_root, mirror_target, journal="")
        session.run()

        backup(source, 3)
        source.delete_oldest()
        plan = session.plan()
        land_without_commit(source_root, mirror_target, plan)
        landed = capture_state(mirror_root)
        assert set(landed["checkpoint"]) - {CHECKPOINT_NAME} > set(named_parts(mirror_root))
        assert "manifest-00000004.txt" in landed["manifests"]

        reader = open_reader()  # a cold open: every commit invalidates the engine
        assert [v["version_id"] for v in reader.versions()] == [1, 2, 3]
        assert restored_sha(reader, 3) == sha(version_bytes(2))
        assert reader.stats()["versions"] == 3
        assert reader.verify(deep=True)["ok"]
        after_reads = capture_state(mirror_root)  # (a restore may flatten a recipe)
        assert {k: set(v) for k, v in after_reads.items()} == {
            k: set(v) for k, v in landed.items()
        }, "reading deleted something"

        mirror_target.commit(plan.renames, plan.deletes)
        assert capture_state(mirror_root) == capture_state(source_root)
        caught_up = open_reader()
        assert [v["version_id"] for v in caught_up.versions()] == [2, 3, 4]
        for index in range(1, 4):
            assert restored_sha(caught_up, index + 1) == sha(version_bytes(index))
        assert caught_up.verify(deep=True)["ok"]
        if kind == "daemon":
            reader.close()
            caught_up.close()


def test_commit_refuses_a_head_whose_part_is_not_on_the_mirror(tmp_path):
    source, mirror_root, mirror_target, session = synced_pair(tmp_path)
    backup(source, 3)
    plan = session.plan()
    land_without_commit(source.root, mirror_target, plan)
    before = capture_state(mirror_root)
    lost = next(iter(set(part_names(mirror_root)) - set(named_parts(mirror_root))))
    os.remove(object_path(mirror_root, "checkpoint", lost))

    with pytest.raises(ReplicationError, match=lost):
        mirror_target.commit(plan.renames, plan.deletes)
    del before["checkpoint"][lost]
    assert capture_state(mirror_root) == before  # nothing was renamed
    mirror = open_repo(mirror_root)
    assert [v["version_id"] for v in mirror.versions()] == [1, 2, 3]  # the old head

    session.run()  # the next sync ships the part again, by presence
    assert capture_state(mirror_root) == capture_state(source.root)
    assert open_repo(mirror_root).verify(deep=True)["ok"]


def test_object_vocabulary_knows_head_and_parts(tmp_path):
    root = str(tmp_path / "repo")
    tables = "checkpoint-tables-0123456789abcdef.bin"
    active = "checkpoint-active-00000007-0123456789abcdef.hdsc"
    assert object_path(root, "checkpoint", CHECKPOINT_NAME) == os.path.join(root, CHECKPOINT_NAME)
    assert object_path(root, "checkpoint", tables) == os.path.join(root, tables)
    assert object_path(root, "checkpoint", active) == os.path.join(root, active)
    assert object_path(root, "container", "container-00000007.hdsc") == os.path.join(
        root, "containers", "container-00000007.hdsc"
    )
    for bad in (
        "checkpoint.json.staged", "checkpoint-tables-XYZ.bin", "checkpoint-active-7-0123456789abcdef.hdsc",
        "../checkpoint.json", "checkpoint-tables-0123456789abcdef.bin/x", "checkpoint",
    ):
        with pytest.raises(ReplicationError):
            object_path(root, "checkpoint", bad)
    with pytest.raises(ReplicationError):
        object_path(root, "tables", tables)


def test_dropping_a_tenant_removes_its_checkpoint_parts():
    with FakeS3Server("127.0.0.1") as server:
        registry = RepositoryRegistry(server.url("bucket", "drop-parts"), metrics=MetricsRegistry())
        handle = registry.get("tenant", create=True)
        for index in range(3):
            backup(handle.repository, index)
        spec = handle.repository.root
        assert len(part_names(spec)) >= 2
        handle.repository.storage.close()
        assert registry.drop("tenant") > 0
        assert all(section == {} for section in capture_state(spec).values())
