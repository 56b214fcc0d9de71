"""Fault injection at the system's real seams (:mod:`repro.chaos.faults`).

The storage-backend wrapper, the wire-corrupting replication target and the
at-rest bit flip.  The repository model in ``tests/repository_machine.py``
drives them, with its own rules for the process-level faults.
"""

from .faults import (
    FaultController,
    FaultInjectingBackend,
    WireCorruptingMirror,
    flip_container_byte,
)

__all__ = [
    "FaultController",
    "FaultInjectingBackend",
    "WireCorruptingMirror",
    "flip_container_byte",
]
