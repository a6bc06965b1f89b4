"""Deterministic discrete-event simulation substrate.

Public surface:

- :class:`~repro.sim.engine.Simulator` — the clock and event queue.
- :class:`~repro.sim.engine.SimEvent` — one-shot triggerable events.
- :class:`~repro.sim.process.Process` — generator-based processes.
- :class:`~repro.sim.resources.Resource` / :class:`~repro.sim.resources.Store`
  — FIFO contention primitives.
"""

from .engine import SimEvent, SimulationError, Simulator
from .process import Process, ProcessFailure
from .resources import Resource, Store

__all__ = [
    "SimEvent",
    "SimulationError",
    "Simulator",
    "Process",
    "ProcessFailure",
    "Resource",
    "Store",
]
