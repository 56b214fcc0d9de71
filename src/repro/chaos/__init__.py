"""Fleet-scale scenario & chaos harness.

Trace-driven multi-tenant replay with deterministic fault injection and
post-phase invariant checking:

* :mod:`repro.chaos.scenario` — JSON spec → deterministic op schedule,
* :mod:`repro.chaos.faults` — fault injectors at the storage-backend,
  replication-target and at-rest seams,
* :mod:`repro.chaos.deploy` — local / daemon / cluster deployment shapes,
* :mod:`repro.chaos.driver` — multi-client execution + tenant models,
* :mod:`repro.chaos.invariants` — reality vs model after every phase,
* :mod:`repro.chaos.runner` — lifecycle + the machine-readable report.

Entry point: ``hidestore chaos run SCENARIO.json`` or
:func:`repro.chaos.runner.run_scenario`.
"""

from .faults import FaultController, FaultInjectingBackend, flip_container_byte
from .runner import ChaosRunner, run_scenario
from .scenario import compile_schedule, load_scenario

__all__ = [
    "FaultController",
    "FaultInjectingBackend",
    "flip_container_byte",
    "ChaosRunner",
    "run_scenario",
    "compile_schedule",
    "load_scenario",
]
