"""Deterministic discrete-event simulation engine.

This is the substrate every timed component of the SCC model runs on:
the RCCE unit-of-execution scheduler, the memory-controller queues and
the mesh-message timing all advance a single simulated clock owned by a
:class:`Simulator`.

The engine is intentionally small and fully deterministic: events fire
in (time, sequence-number) order, so two runs with the same inputs
produce bit-identical schedules.  No wall-clock time is ever consulted.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional

from ..obs.tracer import TID_SIM

__all__ = ["SimEvent", "Simulator", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised for illegal scheduler operations (negative delays, etc.)."""


class SimEvent:
    """A one-shot event that callbacks can be attached to.

    An event is *triggered* at most once, carrying an arbitrary value.
    Callbacks attached after triggering fire immediately (at the current
    simulated time) — this mirrors SimPy semantics and avoids races
    between processes that wait on an event that already happened.
    """

    __slots__ = ("sim", "_callbacks", "_triggered", "_value", "name", "_pending_value")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._callbacks: list[Callable[[Any], None]] = []
        self._triggered = False
        self._value: Any = None
        self._pending_value: Any = None  # value a scheduled timeout will deliver

    @property
    def triggered(self) -> bool:
        """True once the event has fired."""
        return self._triggered

    @property
    def value(self) -> Any:
        """The delivered value (raises before triggering)."""
        if not self._triggered:
            raise SimulationError(f"event {self.name!r} has not triggered yet")
        return self._value

    def add_callback(self, fn: Callable[[Any], None]) -> None:
        """Attach a callback; fires now (via the queue) if already triggered."""
        if self._triggered:
            # Fire at the current time rather than silently dropping.
            self.sim.schedule(0.0, lambda: fn(self._value))
        else:
            self._callbacks.append(fn)

    def succeed(self, value: Any = None) -> "SimEvent":
        """Trigger the event now, delivering ``value`` to all waiters."""
        if self._triggered:
            raise SimulationError(f"event {self.name!r} already triggered")
        self._triggered = True
        self._value = value
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(value)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "triggered" if self._triggered else "pending"
        return f"<SimEvent {self.name!r} {state}>"


class Simulator:
    """Event-queue owner.

    Usage::

        sim = Simulator()
        sim.schedule(5.0, lambda: print(sim.now))
        sim.run()
    """

    def __init__(self, record_trace: bool = False, tracer: Optional[Any] = None) -> None:
        self._now = 0.0
        #: heap of ``(time, seq, item)``: ``item`` is a :class:`SimEvent`
        #: (a timeout) or a bare thunk from :meth:`schedule`.  ``seq`` is
        #: unique, so ties resolve in scheduling order and ``item`` is
        #: never compared.
        self._queue: list[tuple[float, int, SimEvent | Callable[[], None]]] = []
        self._seq = itertools.count()
        self._handled = 0
        self._record_trace = record_trace
        #: (time, seq, event-name) of every dispatched event when
        #: ``record_trace`` is on — the determinism verifier replays a
        #: run and diffs two of these schedules.
        self.trace: list[tuple[float, int, str]] = []
        #: optional :class:`repro.obs.Tracer`; when attached (and
        #: enabled) every dispatched event is recorded as an instant on
        #: the simulator lane.  ``None`` costs one branch per step.
        self.tracer = tracer

    @property
    def now(self) -> float:
        """Current simulated time (seconds by convention)."""
        return self._now

    @property
    def events_handled(self) -> int:
        """Number of callbacks dispatched so far (diagnostic)."""
        return self._handled

    def event(self, name: str = "") -> SimEvent:
        """Create a fresh untriggered event owned by this simulator."""
        return SimEvent(self, name)

    def schedule(self, delay: float, fn: Callable[[], None]) -> None:
        """Run ``fn`` after ``delay`` simulated seconds.

        ``fn`` itself is queued (no event is built for it); it is
        dispatched, and recorded in traces, under the name ``"scheduled"``.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        heapq.heappush(self._queue, (self._now + delay, next(self._seq), fn))

    def timeout(self, delay: float, value: Any = None) -> SimEvent:
        """Return an event that triggers ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        ev = SimEvent(self, "timeout")
        ev._pending_value = value
        heapq.heappush(self._queue, (self._now + delay, next(self._seq), ev))
        return ev

    def _step(self) -> None:
        time, seq, item = heapq.heappop(self._queue)
        if time < self._now:  # pragma: no cover - defensive
            raise SimulationError("time went backwards")
        self._now = time
        self._handled += 1
        tr = self.tracer
        if self._record_trace or (tr is not None and tr.enabled):
            name = item.name if isinstance(item, SimEvent) else "scheduled"
            if self._record_trace:
                self.trace.append((time, seq, name))
            if tr is not None and tr.enabled:
                tr.instant(name or "event", tid=TID_SIM, cat="sim", seq=seq)
        if isinstance(item, SimEvent):
            if not item._triggered:
                item.succeed(item._pending_value)
        else:
            item()

    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> float:
        """Dispatch events until the queue drains or ``until`` is reached.

        Returns the final simulated time.  ``max_events`` is a runaway
        guard; hitting it raises :class:`SimulationError`.
        """
        dispatched = 0
        while self._queue:
            if until is not None and self._queue[0][0] > until:
                self._now = until
                break
            self._step()
            dispatched += 1
            if dispatched > max_events:
                raise SimulationError(f"exceeded {max_events} events; runaway simulation?")
        return self._now

    def peek(self) -> float:
        """Time of the next pending event, or +inf if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def empty(self) -> bool:
        """True when no events are pending."""
        return not self._queue

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Simulator now={self._now:.9f} pending={len(self._queue)}>"
