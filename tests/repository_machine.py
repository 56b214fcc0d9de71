"""One model of a repository: a Hypothesis state machine over the contract.

:class:`RepositoryMachine` drives one fresh tenant on one of the six
surfaces of ``conftest.Deployment`` through the operations of the
:class:`~repro.repository.Repository` contract — backup of an evolving tree,
restore (whole, ``file=``, ``workers=``, ``verify=``), ``delete_oldest``,
deep verify, reopen with a fresh engine, replicate to a mirror daemon and
repair from it — and through one rule per fault: ``enospc``, ``torn_write``,
``latency``, ``bitflip``, ``corrupt_transit``, ``partition_mirror``,
``kill_primary`` (a daemon surface) and ``crash`` at mutation k (a local
surface).

The oracle is the tree of every retained version plus the typed errors the
contract allows: an operation fails, with a
:class:`~repro.errors.ReproError`, exactly when a fault fired under it, and
then changes nothing the model can see.  After every step
:meth:`RepositoryMachine.check_model` holds the repository to the
model: no torn versions, deletions propagated, the mirror never torn, a
revived daemon answering, and every committed object unchanged since it was
written.  Counters go to the ``chaos.*`` series of the machine's registry;
``chaos.faults_injected.<kind>`` counts each fault that fired.

Run it with :func:`run_machine` (Hypothesis searches and shrinks step
sequences) or :func:`run_tour` (one fixed sequence that fires every fault a
surface can realise).  A failing run prints its shrunk steps as calls on a
machine instance; paste them after ``state = bind(deployment, kind,
controller)()`` to replay them.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import random

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RULE_MARKER,
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.chaos.faults import WireCorruptingMirror, flip_container_byte
from repro.core.verify import container_name
from repro.errors import (
    RepositoryNotFoundError,
    ReproError,
    VersionNotFoundError,
)
from repro.replication import LocalMirror, RemoteMirror, repair_from_mirror, sync, verify_repository
from repro.replication.repair import referenced_container_ids
from repro.repository import LocalRepository
from repro.storage.repo import STAGED_SUFFIX, RepoStorage
from tests.crashpoints import (
    check_recovered,
    crash_run,
    head_of,
    kill_in_flight,
    recording_recipes,
)

#: Every fault the model injects on a daemon surface; a local surface
#: crashes its own process instead of killing a daemon.
FAULT_KINDS = (
    "enospc", "torn_write", "latency", "bitflip",
    "corrupt_transit", "partition_mirror", "kill_primary",
)
LOCAL_FAULTS = tuple(kind for kind in FAULT_KINDS if kind != "kill_primary") + ("crash",)

#: Tier-1: derandomised and small, all six surfaces well inside 20 s.
TIER1 = settings(
    max_examples=3, stateful_step_count=10, derandomize=True, database=None,
    deadline=None, suppress_health_check=list(HealthCheck), print_blob=True,
)
#: CI and ``bench_chaos.py``: fresh random sequences, printed when one fails.
LONG = settings(
    max_examples=30, stateful_step_count=30, database=None,
    deadline=None, suppress_health_check=list(HealthCheck), print_blob=True,
)

_tenants = itertools.count(1)


def digest(tree):
    sha = hashlib.sha256()
    for name in sorted(tree):
        sha.update(tree[name])
    return sha.hexdigest()


def fresh(seed, size):
    return random.Random(seed).randbytes(size)


def fired(metrics, kind):
    return metrics.snapshot()["counters"].get(f"chaos.faults_injected.{kind}", 0)


class RepositoryMachine(RuleBasedStateMachine):
    """The model; :func:`bind` gives it a deployment, a surface kind and a
    fault controller."""

    deployment = None
    kind = "file"
    controller = None
    #: The negative control turns this off: a bitflip must then fail the
    #: restore-digest invariant.
    repair_bitflips = True

    def __init__(self):
        super().__init__()
        self.metrics = self.controller.metrics
        self.surface = self.deployment.surface(self.kind)
        self.tenant = f"m{next(_tenants)}-{self.kind}"
        self.spec = self.surface.primary(self.tenant)
        self.mirror_root = str(self.deployment.root / "mirror" / self.tenant)
        self._recording = recording_recipes()
        self.written = self._recording.__enter__()
        self.repo = self.surface.open_repo(self.tenant)
        self.files = {}
        #: version -> the tree it holds; deleted versions, oldest first.
        self.versions, self.deleted = {}, []
        #: version -> digest the mirror holds after the last completed sync.
        self.mirror = None
        self.mirror_dirty = self.partitioned = self.revived = False
        #: (kind, name) -> sha256 of every committed object seen so far.
        self.objects = {}

    def teardown(self):
        self.controller.disarm_all()
        if self.partitioned:
            self.deployment.mirror.resume_accepting()
        self.repo.close()
        self._recording.__exit__(None, None, None)

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _op(self, call, may_fail=False):
        """One client operation: its result, or (``may_fail``) the typed
        error it raised.  Anything untyped fails the run."""
        self.metrics.inc("chaos.ops_total")
        try:
            return call()
        except ReproError as exc:
            self.metrics.inc("chaos.ops_failed_typed")
            if not may_fail:
                raise
            return exc
        except Exception:
            self.metrics.inc("chaos.ops_failed_untyped")
            raise

    def _evolve(self, pick, at, size, seed):
        """Overwrite ``size`` fresh bytes of one file; every fifth pick adds
        a file and (above two files) every fifth drops one."""
        if not self.files:
            self.files = {f"d{i % 2}/f{i}.bin": fresh(seed + i, 12_000 + 4_000 * i) for i in range(3)}
            return
        names = sorted(self.files)
        if pick % 5 == 4 and len(names) < 6:
            self.files[f"n{seed}.bin"] = fresh(seed, 4_000 + size)
        elif pick % 5 == 3 and len(names) > 2:
            del self.files[names[pick % len(names)]]
        name = sorted(self.files)[pick % len(self.files)]
        data = bytearray(self.files[name])
        at %= len(data)
        data[at : at + size] = fresh(seed, size)
        self.files[name] = bytes(data)

    def _backup(self, blocks=None, may_fail=False):
        """Back the current tree up; returns whether it committed."""
        names = sorted(self.files)
        plan = [(name, len(self.files[name])) for name in names]
        if blocks is None:
            blocks = [self.files[name] for name in names]
        result = self._op(lambda: self.repo.backup_blocks(blocks, plan, "m"), may_fail)
        if isinstance(result, ReproError):
            return False
        assert result["version_id"] not in self.versions
        assert result["version_id"] > max([*self.versions, *self.deleted], default=0)
        self.versions[result["version_id"]] = dict(self.files)
        return True

    def _daemon(self):
        return self.deployment.daemon_of(self.kind, self.tenant)

    def _reload(self):
        """Drop every cached engine of the tenant: the next operation
        reads the repository from its storage."""
        self.repo.close()
        daemon = self._daemon()
        if daemon is not None:
            try:
                daemon.daemon.registry.get(self.tenant).repository.invalidate()
            except ReproError:
                pass  # the daemon never opened it
        self.repo = self.surface.open_repo(self.tenant)

    def _mirror_target(self):
        return RemoteMirror(self.deployment.mirror_address, self.tenant, timeout=10.0, retries=1)

    def _sync(self, target):
        """Replicate onto ``target``; returns whether the sync completed."""
        source = LocalMirror(self.spec)
        try:
            result = self._op(lambda: sync(source, target), may_fail=True)
        finally:
            source.close()
            target.close()
        if isinstance(result, ReproError):
            self.mirror_dirty = self.mirror is not None
            return False
        self.mirror = {v: digest(tree) for v, tree in self.versions.items()}
        self.mirror_dirty = False
        return True

    def _with_fault(self, kind, edit, **arm):
        """Arm one fault on the tenant's storage and back up under it: the
        backup fails exactly when the fault fired, and then commits nothing."""
        before, versions = fired(self.metrics, kind), dict(self.versions)
        self._evolve(*edit)
        self.controller.arm(kind, match_url="/" + self.tenant, **arm)
        try:
            committed = self._backup(may_fail=True)
        finally:
            self.controller.disarm_all()
        went_off = fired(self.metrics, kind) > before
        if kind == "latency":
            assert committed, "a slow backend failed a backup"
        else:
            assert committed != went_off, f"{kind}: fired={went_off} but committed={committed}"
            if not committed:
                assert self.versions == versions

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    edits = st.tuples(
        st.integers(0, 19), st.integers(0, 60_000), st.integers(1_000, 6_000), st.integers(0, 10**6)
    )

    @rule(edit=edits)
    def backup(self, edit):
        self._evolve(*edit)
        assert self._backup()

    @precondition(lambda self: self.versions)
    @rule(pick=st.integers(0, 7), how=st.sampled_from(["whole", "file", "workers", "verify"]))
    def restore(self, pick, how):
        version = sorted(self.versions)[pick % len(self.versions)]
        tree = self.versions[version]
        knobs = {"whole": {}, "workers": {"workers": 2}, "verify": {"verify": True}}
        if how == "file":
            name = sorted(tree)[pick % len(tree)]
            plan, data = self._op(lambda: self.repo.restore(version, file=name))
            assert (plan, b"".join(data)) == ([(name, len(tree[name]))], tree[name])
            return
        plan, data = self._op(lambda: self.repo.restore(version, **knobs[how]))
        assert plan == [(name, len(tree[name])) for name in sorted(tree)]
        assert hashlib.sha256(b"".join(data)).hexdigest() == digest(tree)

    @precondition(lambda self: len(self.versions) >= 2)
    @rule()
    def delete_oldest(self):
        oldest = min(self.versions)
        assert self._op(self.repo.delete_oldest)["version_id"] == oldest
        del self.versions[oldest]
        self.deleted.append(oldest)

    @precondition(lambda self: self.versions)
    @rule()
    def verify(self):
        report = self._op(lambda: self.repo.verify(deep=True))
        assert report["ok"], report["issues"]

    @rule()
    def reopen(self):
        self._reload()

    @precondition(lambda self: self.versions)
    @rule()
    def replicate(self):
        assert self._sync(self._mirror_target()) != self.partitioned

    @precondition(lambda self: self.mirror is not None)
    @rule()
    def repair(self):
        report = self._op(
            lambda: repair_from_mirror(self.spec, self._mirror_target(), deep=True),
            may_fail=self.partitioned,
        )
        if not self.partitioned:
            assert report.damaged == {} and report.repaired == []

    # ------------------------------------------------------------------
    # Faults
    # ------------------------------------------------------------------
    @rule(edit=edits)
    def enospc(self, edit):
        self._with_fault("enospc", edit, op="put", match_name="container")

    @rule(edit=edits)
    def torn_write(self, edit):
        self._with_fault("torn_write", edit, op="put", match_name="container")

    @rule(edit=edits)
    def latency(self, edit):
        self._with_fault("latency", edit, count=3, seconds=0.001)

    @precondition(lambda self: self.mirror is not None and not self.partitioned)
    @rule(pick=st.integers(0, 7))
    def bitflip(self, pick):
        """Rot one committed container the mirror holds, then repair it."""
        storage = RepoStorage(self.spec)
        try:
            ours = {container_name(cid) for cid in referenced_container_ids(storage)}
        finally:
            storage.close()
        mirrored = set(os.listdir(os.path.join(self.mirror_root, "containers")))
        candidates = sorted(ours & mirrored)
        if not candidates:
            return
        name = candidates[pick % len(candidates)]
        flip_container_byte(self.spec, name, self.controller)
        if self.repair_bitflips:
            report = self._op(lambda: repair_from_mirror(self.spec, self._mirror_target(), deep=True))
            assert report.repaired == [name], report.as_dict()
        self._reload()

    @precondition(lambda self: self.versions and not self.partitioned)
    @rule()
    def corrupt_transit(self):
        """Ship through a mirror whose next container arrives corrupted:
        the mirror daemon refuses it and the sync commits nothing."""
        before = fired(self.metrics, "corrupt_transit")
        mirrored = self.mirror
        completed = self._sync(WireCorruptingMirror(self._mirror_target(), self.controller))
        if fired(self.metrics, "corrupt_transit") > before:
            assert not completed and self.mirror == mirrored
        else:
            assert completed

    @precondition(lambda self: not self.partitioned)
    @rule()
    def partition_mirror(self):
        self.deployment.mirror.pause_accepting()
        self.partitioned = True
        self.controller.note_injected("partition_mirror", tenant=self.tenant)

    @precondition(lambda self: self.partitioned)
    @rule()
    def heal_mirror(self):
        self.deployment.mirror.resume_accepting()
        self.partitioned = False

    @precondition(lambda self: not self.surface.local)
    @rule(edit=edits)
    def kill_primary(self, edit):
        """Kill the tenant's daemon with a container write in flight
        (:func:`~tests.crashpoints.kill_in_flight`), then revive it on the
        same root and port.  A stream the client cannot replay keeps the
        router from retrying the backup elsewhere."""
        daemon = self._daemon()
        before, versions = fired(self.metrics, "kill_primary"), dict(self.versions)
        self._evolve(*edit)
        self.controller.arm(
            "observe", op="put", match_url="/" + self.tenant, match_name="container",
            callback=kill_in_flight(daemon, self.controller, tenant=self.tenant),
        )
        try:
            committed = self._backup(iter([self.files[n] for n in sorted(self.files)]), True)
        finally:
            self.controller.disarm_all()
        went_off = fired(self.metrics, "kill_primary") > before
        if went_off:
            daemon.kill()
            self.repo.close()
            self.deployment.revive(self.kind, self.tenant)
            self.repo = self.surface.open_repo(self.tenant)
            self.revived = True
        assert committed != went_off, f"kill_primary: fired={went_off} but committed={committed}"
        assert committed or self.versions == versions

    @precondition(lambda self: self.surface.local and self.versions)
    @rule(k=st.integers(0, 6), edit=edits, delete=st.booleans())
    def crash(self, k, edit, delete):
        """Kill the process before its k-th mutation of a backup (or, with
        two versions retained, of a delete), reopen, and recover."""
        delete = delete and len(self.versions) >= 2
        self.repo.close()
        next_version = head_of(self.spec)["next_version"]
        digests = {v: digest(tree) for v, tree in self.versions.items()}
        if delete:
            operation = lambda repo: repo.delete_oldest()  # noqa: E731
        else:
            self._evolve(*edit)
            names, pending = sorted(self.files), dict(self.files)
            digests[next_version] = digest(pending)
            operation = lambda repo: repo.backup_blocks(  # noqa: E731
                [pending[n] for n in names], [(n, len(pending[n])) for n in names], "m"
            )
        crash_run(self.controller, self.spec, operation, k, match_url="/" + self.tenant)
        recovery = fresh(edit[3] + 1, 6_000)
        listed = check_recovered(self.spec, digests, next_version, self.written, [recovery])
        if delete:
            oldest = min(self.versions)
            if oldest not in listed:
                del self.versions[oldest]
                self.deleted.append(oldest)
        elif next_version in listed:
            self.versions[next_version] = pending
        self.versions[listed[-1]] = {"data.bin": recovery}
        assert sorted(self.versions) == listed
        self.repo = self.surface.open_repo(self.tenant)

    # ------------------------------------------------------------------
    # Invariants, in the order they are checked
    # ------------------------------------------------------------------
    @invariant()
    def check_model(self):
        for check in (
            self.no_torn_versions, self.deletion_propagates, self.mirror_consistent,
            self.clean_resume, self.objects_never_change,
        ):
            self.metrics.inc("chaos.invariants_checked")
            try:
                check()
            except (AssertionError, ReproError) as exc:
                self.metrics.inc("chaos.invariant_failures")
                raise AssertionError(f"{check.__name__}: {exc}") from exc

    def no_torn_versions(self):
        """The listed versions are the model's, each restores to its digest."""
        try:
            listed = [row["version_id"] for row in self.repo.versions()]
        except RepositoryNotFoundError:
            listed = []  # nothing committed yet: nothing created either
        assert listed == sorted(self.versions), f"versions {listed}, model {sorted(self.versions)}"
        for version, tree in self.versions.items():
            _plan, data = self.repo.restore(version, verify=True)
            assert hashlib.sha256(b"".join(data)).hexdigest() == digest(tree), (
                f"restored bytes of version {version} do not match"
            )

    def deletion_propagates(self):
        """A deleted version is gone, and restoring it is a typed refusal."""
        if self.deleted:
            try:
                self.repo.restore(self.deleted[-1])
            except VersionNotFoundError:
                return
            raise AssertionError(f"deleted version {self.deleted[-1]} still restores")

    def mirror_consistent(self):
        """The mirror holds exactly the last completed sync: restorable,
        deep-verifiable, and without staged litter unless a sync died."""
        if self.mirror is None:
            return
        mirror = LocalRepository(self.mirror_root)
        try:
            assert [row["version_id"] for row in mirror.versions()] == sorted(self.mirror)
            for version, want in self.mirror.items():
                _plan, data = mirror.restore(version, verify=True)
                assert hashlib.sha256(b"".join(data)).hexdigest() == want, version
        finally:
            mirror.close()
        assert verify_repository(self.mirror_root, deep=True).ok
        if not self.mirror_dirty:
            litter = [
                name for _dir, _dirs, names in os.walk(self.mirror_root)
                for name in names if name.endswith(STAGED_SUFFIX)
            ]
            assert not litter, litter

    def clean_resume(self):
        """A revived daemon serves the tenant without intervention."""
        if self.revived:
            assert self.repo.stats()["versions"] == len(self.versions)
            self.revived = False

    def objects_never_change(self):
        """Every object the committed state names keeps the bytes it was
        first written with (the checkpoint head alone is rewritten)."""
        storage = RepoStorage(self.spec)
        try:
            if not storage.has_checkpoint():
                return  # nothing committed yet
            named = [("recipe", f"recipe-{v:08d}.hdsr") for v in self.versions]
            named += [("manifest", storage.manifest_name(v)) for v in self.versions]
            named += [("container", container_name(cid)) for cid in referenced_container_ids(storage)]
            named += [("checkpoint", ref["name"]) for ref in storage.read_checkpoint_document()["parts"]]
            for key in named:
                seen = hashlib.sha256(storage.read_object(*key)).hexdigest()
                assert self.objects.setdefault(key, seen) == seen, f"{key} changed after it was written"
        finally:
            storage.close()


def bind(deployment, kind, controller, machine=RepositoryMachine):
    """The machine class for one surface of ``deployment``."""
    return type(
        f"{machine.__name__}_{kind}", (machine,),
        {"deployment": deployment, "kind": kind, "controller": controller},
    )


def run_machine(deployment, kind, controller, profile=TIER1):
    """Let Hypothesis search step sequences on one surface."""
    run_state_machine_as_test(bind(deployment, kind, controller), settings=profile)


#: One sequence through every rule; the fault rules fire by construction.
TOUR = (
    ("backup", {"edit": (0, 100, 2_000, 1)}),
    ("backup", {"edit": (1, 5_000, 3_000, 2)}),
    ("replicate", {}),
    ("restore", {"pick": 0, "how": "file"}),
    ("restore", {"pick": 1, "how": "workers"}),
    ("enospc", {"edit": (2, 7_000, 2_500, 3)}),
    ("torn_write", {"edit": (4, 1_000, 3_000, 4)}),
    ("latency", {"edit": (5, 9_000, 1_500, 5)}),
    ("restore", {"pick": 2, "how": "verify"}),
    ("bitflip", {"pick": 0}),
    ("corrupt_transit", {}),
    ("partition_mirror", {}),
    ("replicate", {}),
    ("heal_mirror", {}),
    ("replicate", {}),
    ("repair", {}),
    ("kill_primary", {"edit": (6, 2_000, 2_000, 6)}),
    ("crash", {"k": 2, "edit": (7, 3_000, 2_000, 7), "delete": False}),
    ("delete_oldest", {}),
    ("crash", {"k": 1, "edit": (8, 0, 1_000, 8), "delete": True}),
    ("verify", {}),
    ("reopen", {}),
    ("restore", {"pick": 3, "how": "whole"}),
)


def run_tour(deployment, kind, controller, machine=RepositoryMachine):
    """Run :data:`TOUR` on one surface, skipping the rules its
    preconditions rule out there, checking the invariants after each."""
    state = bind(deployment, kind, controller, machine)()
    try:
        state.check_model()
        for name, args in TOUR:
            method = getattr(state, name)
            if all(check(state) for check in _preconditions(method)):
                method(**args)
                state.check_model()
    finally:
        state.teardown()


def _preconditions(method):
    return getattr(method, RULE_MARKER).preconditions
