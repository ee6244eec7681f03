"""Deterministic discrete-event simulation substrate.

Provides the engine (simulated nanosecond clock + event queue), generator
processes, synchronization resources, and named seeded RNG streams used by
the HTM and memory-management scenarios.
"""

from repro.sim.engine import Engine, SimulationError
from repro.sim.process import (
    Process,
    SimEvent,
    Wait,
    spawn,
)
from repro.sim.resources import SimMutex, SimSemaphore
from repro.sim.rng import RngStreams

__all__ = [
    "Engine",
    "SimulationError",
    "Process",
    "SimEvent",
    "Wait",
    "spawn",
    "SimMutex",
    "SimSemaphore",
    "RngStreams",
]
