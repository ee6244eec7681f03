"""Deterministic discrete-event simulation substrate.

Provides the engine (simulated nanosecond clock + event queue) and
generator processes, which the serving pipeline runs on.  The HTM and
memory-management scenarios also import the synchronization resources
(:mod:`repro.sim.resources`) and the named seeded RNG streams
(:mod:`repro.sim.rng`) from their own modules.
"""

from repro.sim.engine import Engine, SimulationError
from repro.sim.process import (
    Process,
    SimEvent,
    Wait,
    spawn,
)

__all__ = [
    "Engine",
    "SimulationError",
    "Process",
    "SimEvent",
    "Wait",
    "spawn",
]
