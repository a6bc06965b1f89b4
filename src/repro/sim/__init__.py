"""Deterministic discrete-event simulation substrate.

Public surface:

- :class:`~repro.sim.engine.Simulator` — the clock and event queue.
- :class:`~repro.sim.engine.SimEvent` — one-shot triggerable events.
- :class:`~repro.sim.process.Process` — generator-based processes.
"""

from .engine import SimEvent, SimulationError, Simulator
from .process import Process, ProcessFailure

__all__ = [
    "SimEvent",
    "SimulationError",
    "Simulator",
    "Process",
    "ProcessFailure",
]
