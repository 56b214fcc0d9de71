"""Crash at mutation k, reopen, check what survived: one helper for every
caller that kills a writer.

The crash-point enumerator (``test_checkpoint_incremental.py``) walks every
``k`` of a fixed operation; the repository model
(``repository_machine.py``) draws ``k`` as one of its rules.  Both observe
the mutations through a :class:`~repro.chaos.faults.FaultController`, die
with :class:`Crash` and judge the reopened repository with
:func:`check_recovered`.  A daemon dies the same way, under one write:
:func:`kill_in_flight`.
"""

import contextlib
import hashlib
import threading
import time

from repro.core.recipe_chain import RecipeChain
from repro.errors import ReproError, StorageError
from repro.observability import MetricsRegistry
from repro.repository import LocalRepository
from repro.storage.recipe import pack_recipe
from repro.storage.repo import CHECKPOINT_NAME, RepoStorage
from tests.conftest import repo_state

HEAD_FORMAT = "hidestore-checkpoint-v5"


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
    return sorted(set(repo_state(spec)["checkpoint"]) - {CHECKPOINT_NAME})


def named_parts(spec):
    return sorted(ref["name"] for ref in head_of(spec)["parts"])


class Crash(BaseException):
    """Not an ``Exception``: nothing on the way out may swallow a death."""


class Mutations:
    """Every mutating backend call, in order, via ``FaultController``.

    ``crash_after=n`` lets ``n`` mutations through and fails every later
    one with :class:`Crash` — the process is dead, nothing it would have
    done after that point happens, the rollback handlers included.
    ``match_url`` keeps the observers to one repository's backends.
    """

    OPS = ("put", "put_meta", "rename", "delete")

    def __init__(self, controller, crash_after=None, match_url=None):
        self.log = []
        self.crash_after = crash_after
        self.crashed = False
        self.controller = controller
        for op in self.OPS:
            controller.arm("observe", op=op, match_url=match_url, count=-1, callback=self._on(op))

    def _on(self, op):
        def note(_url, name):
            if self.crash_after is not None and len(self.log) >= self.crash_after:
                if not self.crashed:
                    self.crashed = True
                    self.controller.note_injected("crash", name=name)
                raise Crash(f"dead before {op} {name}")
            self.log.append((op, name))

        return note


def kill_in_flight(thread, controller, **detail):
    """A directive callback that kills daemon ``thread`` under the write it
    fires on: counted as ``kill_primary``, the daemon's zero-patience
    shutdown started on a thread of its own (it joins the session this
    write runs on), the write held until the daemon is draining and then
    failed — it never lands, as under a SIGKILL, and the shutdown rolls
    the operation back.  ``thread.kill()`` then waits for that shutdown."""

    def die(_url, name):
        controller.note_injected("kill_primary", **detail)
        threading.Thread(target=thread.daemon.shutdown, args=(0,), daemon=True).start()
        while not thread.daemon.draining:
            time.sleep(0.001)
        raise StorageError(f"daemon killed with {name!r} in flight")

    return die


def crash_run(controller, spec, operation, crash_after=None, torn=None, match_url=None):
    """Run ``operation`` on a fresh handle of ``spec`` that dies before
    mutation ``crash_after`` (and tears the part write named ``torn``);
    returns the mutations it got through and whether it died."""
    seen = Mutations(controller, crash_after, match_url)
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
    return seen.log, seen.crashed


@contextlib.contextmanager
def recording_recipes():
    """version -> the bytes ``write_fresh`` stored for it, while open."""
    written = {}
    original = RecipeChain.write_fresh

    def recording(chain, recipe):
        written[recipe.version_id] = pack_recipe(recipe)
        return original(chain, recipe)

    RecipeChain.write_fresh = recording
    try:
        yield written
    finally:
        RecipeChain.write_fresh = original


def accounting(repo):
    stats = repo.stats()
    keys = ("versions", "logical_bytes", "stored_bytes", "containers_archival", "containers_active")
    return {key: stats[key] for key in keys}


def stored_recipes(repo, versions):
    return {v: repo.storage.read_object("recipe", f"recipe-{v:08d}.hdsr") for v in versions}


def check_recovered(spec, digests, next_version_before, written, recovery, committed=None):
    """Everything a reopened repository must satisfy, whatever killed the
    process that last wrote to it.  ``written``: version -> the recipe bytes
    first stored for it, which no later write may change; ``recovery``: the
    versions backed up after it; ``committed``: the accounting of the run
    nothing killed, which a death after its head must not change.  Returns
    the versions listed afterwards, the recovery backups' last."""
    repo = open_repo(spec)
    if committed is not None:  # a reader's open, before any writer swept
        assert accounting(repo) == committed
    listed = [v["version_id"] for v in repo.versions()]  # the open succeeds
    assert stored_recipes(repo, listed) == {v: written[v] for v in listed}
    engine = repo._open()
    assert next_version_before <= engine._next_version <= next_version_before + 1
    assert listed and listed == list(range(listed[0], listed[-1] + 1))
    assert listed[-1] < engine._next_version
    stored = repo_state(spec)
    for version_id in listed:
        assert restored_sha(repo, version_id) == digests[version_id], version_id
    assert repo_state(spec) == stored, "a restore changed a stored object"
    for version in engine.deletion.tagged_versions():
        assert version in listed, f"tag of version {version} outlived its recipe"
        for cid in engine.deletion.containers_for(version):
            assert cid in engine.containers, f"tagged container {cid} is gone"
    assert set(repo.storage.manifest_ids()) >= set(listed)
    debris = set(part_names(spec)) - {ref["name"] for ref in head_of(spec).get("parts", ())}
    pending = set(head_of(spec).get("released", ()))
    report = repo.verify(deep=True)
    assert report["ok"], report["issues"]
    # Reading judged no part: only a writer can know no sync is mid-flight.
    assert debris <= set(part_names(spec))
    # And it is not merely consistent but alive: the next backups commit,
    # and no unnamed part survives that writer's open.
    new = []
    for data in recovery:
        new.append(repo.backup_blocks([data], [("data.bin", len(data))])["version_id"])
        assert restored_sha(repo, new[-1]) == sha(data)
    assert new == list(range(engine._next_version - len(recovery), engine._next_version))
    head = head_of(spec)
    assert head["format"] == HEAD_FORMAT
    assert part_names(spec) == named_parts(spec)
    # No object a head released survives: not the ones this save released
    # (deleted after its head), not a dead writer's (swept at this open).
    assert not (pending | set(head["released"])) & set(repo.storage.container_object_ids())
    assert sorted(repo.storage.manifest_ids()) == [*listed, *new]
    assert stored_recipes(repo, [*listed, *new]) == {v: written[v] for v in [*listed, *new]}
    reopened = open_repo(spec)
    assert reopened.verify(deep=True)["ok"]
    reopened.storage.close()
    repo.storage.close()
    return [*listed, *new]
