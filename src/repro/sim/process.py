"""Coroutine processes on top of the event engine.

A *process* is a Python generator that yields :class:`SimEvent` objects
(typically ``sim.timeout(dt)`` or events produced by resources).  The
process resumes when the yielded event triggers, receiving the event's
value via ``send``.  This is the execution model used for RCCE units of
execution: each UE is one process; communication primitives yield
events owned by the MPB / memory-controller models.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from ..obs.tracer import TID_SCHED
from .engine import SimEvent, SimulationError, Simulator

__all__ = ["Process", "ProcessFailure"]

ProcessGen = Generator[SimEvent, Any, Any]


class ProcessFailure(RuntimeError):
    """Wraps an exception raised inside a process generator."""

    def __init__(self, process: "Process", cause: BaseException) -> None:
        super().__init__(f"process {process.name!r} failed: {cause!r}")
        self.process = process
        self.cause = cause


class Process:
    """Drive a generator as a simulated process.

    The process itself is awaitable: it exposes a ``done`` event that
    triggers with the generator's return value, so processes can wait
    for each other (``yield other.done``).
    """

    def __init__(self, sim: Simulator, gen: ProcessGen, name: str = "process") -> None:
        self.sim = sim
        self.name = name
        self._gen = gen
        self.done: SimEvent = sim.event(f"{name}.done")
        self.error: Optional[BaseException] = None
        # Kick off on the next dispatch at the current time so that
        # process creation order, not generator body order, decides ties.
        sim.schedule(0.0, lambda: self._resume(None))

    @property
    def finished(self) -> bool:
        """True once the generator returned."""
        return self.done.triggered

    def _resume(self, value: Any) -> None:
        if self.done.triggered:
            raise SimulationError(f"process {self.name!r} resumed after completion")
        tr = self.sim.tracer
        if tr is not None and tr.enabled:
            # Context switch: the scheduler hands the (single) simulated
            # CPU to this process for one step.
            tr.instant("proc.resume", tid=TID_SCHED, cat="sched", process=self.name)
        try:
            target = self._gen.send(value)
        except StopIteration as stop:
            if tr is not None and tr.enabled:
                tr.instant("proc.exit", tid=TID_SCHED, cat="sched", process=self.name)
            self.done.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - surfaced as ProcessFailure
            self.error = exc
            raise ProcessFailure(self, exc) from exc
        if not isinstance(target, SimEvent):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must yield SimEvent"
            )
        target.add_callback(self._resume)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "finished" if self.finished else "running"
        return f"<Process {self.name!r} {state}>"
