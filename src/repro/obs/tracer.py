"""Structured tracing with simulated-time timestamps.

A :class:`Tracer` records *events* — span begin/end pairs, instants and
counter samples — stamped with the owning simulator's clock, plus a
:class:`~repro.obs.metrics.MetricsRegistry` for numeric aggregates.
Model components accept an optional tracer and guard every hook with a
single truthiness check::

    tr = self.tracer
    if tr:
        tr.instant("recv", tid=ue, cat="rcce", tag=tag)

``None`` and the shared :data:`NULL_TRACER` are both falsy, so a
disabled tracer costs one attribute load and one branch — nothing is
formatted, allocated or appended.  That is the layer's zero-cost
contract, benchmarked by ``repro bench snapshot``.

Determinism: timestamps come from the simulated clock and events are
stored in call order, so two runs of the same seeded workload produce
byte-identical traces (the DET900 property, extended to observability).
Wall-clock time is never consulted.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional

from .metrics import MetricsRegistry

__all__ = ["TraceEvent", "Tracer", "NullTracer", "NULL_TRACER", "TID_SIM", "TID_SCHED"]

#: reserved trace lanes: simulator event dispatch and process scheduling
#: live apart from the UE lanes (tid = UE rank).
TID_SIM = 1000
TID_SCHED = 1001


def _zero_clock() -> float:
    return 0.0


def jsonable(value: Any) -> Any:
    """Best-effort conversion of an event argument to JSON-safe data."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    return repr(value)


class TraceEvent(NamedTuple):
    """One recorded event (phases follow the Chrome ``trace_event`` names).

    ``ph`` is ``"B"`` (span begin), ``"E"`` (span end), ``"i"``
    (instant) or ``"C"`` (counter sample); ``ts`` is simulated seconds.
    A named tuple: construction happens in C, which matters because the
    recording hooks sit on the simulator's per-event hot path (the
    ``tracer_overhead_pct`` line of ``BENCH_spmv.json``).
    """

    name: str
    ph: str
    ts: float
    tid: int
    cat: str
    args: Optional[Dict[str, Any]] = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<TraceEvent {self.ph} {self.name!r} t={self.ts:.9f} tid={self.tid}>"


class Tracer:
    """Event recorder bound to a (simulated) clock.

    ``categories`` optionally restricts recording to a set of category
    strings (``{"rcce", "sched"}``); events from other categories are
    dropped at the recording site.  Counter samples use the ``"metric"``
    category.
    """

    enabled = True

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        categories: Optional[Iterable[str]] = None,
    ) -> None:
        self._clock: Callable[[], float] = clock or _zero_clock
        self.categories = frozenset(categories) if categories is not None else None
        self.events: List[TraceEvent] = []
        # Hot-path bindings: the recording hooks run once per simulator
        # event, so the list-append bound method is looked up here, not
        # per call.  ``clear()`` empties the list in place, keeping the
        # binding valid.
        self._append = self.events.append
        self.metrics = MetricsRegistry()

    def __bool__(self) -> bool:
        return self.enabled

    @property
    def now(self) -> float:
        """Current clock reading (simulated seconds)."""
        return self._clock()

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Late-bind the simulated clock (runtimes call this at boot)."""
        self._clock = clock

    def wants(self, cat: str) -> bool:
        """Whether events of this category are being recorded."""
        return self.enabled and (self.categories is None or cat in self.categories)

    def clear(self) -> None:
        """Drop all recorded events (metrics are kept)."""
        self.events.clear()

    # -- recording ---------------------------------------------------------
    #
    # begin/end/instant/counter are the per-event hot path; each inlines
    # the category filter and appends through the pre-bound
    # ``self._append`` rather than funnelling through an indirection.
    # ``args or None`` keeps empty-kwargs events from retaining a dict.

    def _record(
        self, name: str, ph: str, tid: int, cat: str, args: Optional[Dict[str, Any]]
    ) -> None:
        """Out-of-line recording entry (kept for subclasses/tools)."""
        if self.categories is not None and cat not in self.categories:
            return
        self._append(TraceEvent(name, ph, self._clock(), tid, cat, args))

    def begin(self, name: str, tid: int = 0, cat: str = "", **args: Any) -> None:
        """Open a span on lane ``tid`` (close it with :meth:`end`)."""
        cats = self.categories
        if cats is not None and cat not in cats:
            return
        self._append(TraceEvent(name, "B", self._clock(), tid, cat, args or None))

    def end(self, name: str, tid: int = 0, cat: str = "") -> None:
        """Close the innermost open span named ``name`` on lane ``tid``."""
        cats = self.categories
        if cats is not None and cat not in cats:
            return
        self._append(TraceEvent(name, "E", self._clock(), tid, cat, None))

    def instant(self, name: str, tid: int = 0, cat: str = "", **args: Any) -> None:
        """Record a point-in-time event."""
        cats = self.categories
        if cats is not None and cat not in cats:
            return
        self._append(TraceEvent(name, "i", self._clock(), tid, cat, args or None))

    def counter(self, name: str, value: float, tid: int = 0, cat: str = "metric") -> None:
        """Record a counter sample (renders as a track in Perfetto)."""
        cats = self.categories
        if cats is not None and cat not in cats:
            return
        self._append(TraceEvent(name, "C", self._clock(), tid, cat, {"value": value}))

    @contextmanager
    def span(self, name: str, tid: int = 0, cat: str = "", **args: Any) -> Iterator[None]:
        """Context manager pairing :meth:`begin`/:meth:`end`."""
        self.begin(name, tid=tid, cat=cat, **args)
        try:
            yield
        finally:
            self.end(name, tid=tid, cat=cat)


class NullTracer(Tracer):
    """The disabled tracer: falsy, and every hook is a no-op.

    Use the shared :data:`NULL_TRACER` instance where an API requires a
    tracer object; components that accept ``tracer=None`` treat both
    identically.
    """

    enabled = False

    def __bool__(self) -> bool:
        return False

    # Every recording entry point is overridden (not just _record): the
    # hooks no longer funnel through one indirection, so each must be a
    # no-op in its own right.

    def _record(
        self, name: str, ph: str, tid: int, cat: str, args: Optional[Dict[str, Any]]
    ) -> None:
        pass

    def begin(self, name: str, tid: int = 0, cat: str = "", **args: Any) -> None:
        pass

    def end(self, name: str, tid: int = 0, cat: str = "") -> None:
        pass

    def instant(self, name: str, tid: int = 0, cat: str = "", **args: Any) -> None:
        pass

    def counter(self, name: str, value: float, tid: int = 0, cat: str = "metric") -> None:
        pass


NULL_TRACER = NullTracer()
