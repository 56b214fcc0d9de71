"""The repository model (``repository_machine.py``) on all six surfaces.

Each surface runs the fixed tour, which fires every fault the surface can
realise, and then a Hypothesis search of step sequences: the tier-1 profile
by default, the long one with ``REPOSITORY_MACHINE_PROFILE=long``.  The
tour's ``chaos.*`` counters are checked on their own.  The
negative control skips the repair after a bit flip, and the model must then
fail on the restore-digest invariant.
"""

import os

import pytest

from repro.chaos.faults import FaultController
from repro.observability import MetricsRegistry
from tests.conftest import SURFACES
from tests.repository_machine import (
    FAULT_KINDS,
    LOCAL_FAULTS,
    LONG,
    TIER1,
    RepositoryMachine,
    fired,
    run_machine,
    run_tour,
)

PROFILE = LONG if os.environ.get("REPOSITORY_MACHINE_PROFILE") == "long" else TIER1


@pytest.mark.parametrize("kind", SURFACES)
def test_the_model_holds_and_every_fault_fires(deployment, kind):
    metrics = MetricsRegistry()
    with FaultController(metrics) as controller:
        run_tour(deployment, kind, controller)
        run_machine(deployment, kind, controller, PROFILE)
    faults = LOCAL_FAULTS if deployment.surface(kind).local else FAULT_KINDS
    assert [fault for fault in faults if not fired(metrics, fault)] == []
    counters = metrics.snapshot()["counters"]
    assert counters["chaos.invariants_checked"] > 0
    assert counters.get("chaos.invariant_failures", 0) == 0
    assert counters.get("chaos.ops_failed_untyped", 0) == 0


def test_counters_surface_through_registry(deployment):
    metrics = MetricsRegistry()
    with FaultController(metrics) as controller:
        run_tour(deployment, "file", controller)
    counters = metrics.snapshot()["counters"]
    by_kind = [fired(metrics, fault) for fault in LOCAL_FAULTS]
    assert min(by_kind) >= 1
    assert counters["chaos.faults_injected"] == sum(by_kind)
    assert counters["chaos.invariants_checked"] > 0
    assert counters.get("chaos.invariant_failures", 0) == 0
    assert counters["chaos.ops_failed_typed"] >= 1
    assert counters.get("chaos.ops_failed_untyped", 0) == 0
    assert counters["chaos.ops_total"] > counters["chaos.ops_failed_typed"]


class WithoutRepair(RepositoryMachine):
    repair_bitflips = False


def test_an_unrepaired_bitflip_fails_the_restore_digest_invariant(deployment):
    metrics = MetricsRegistry()
    with FaultController(metrics) as controller:
        with pytest.raises(AssertionError, match="^no_torn_versions: "):
            run_tour(deployment, "file", controller, WithoutRepair)
    assert fired(metrics, "bitflip") == 1
    assert metrics.snapshot()["counters"]["chaos.invariant_failures"] == 1
