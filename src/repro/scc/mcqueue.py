"""Event-driven memory-controller queue — validation of the closed form.

The timing solver (:mod:`repro.core.timing`) computes each controller's
effective per-line service time from a closed-form bandwidth-sharing
equilibrium.  This module checks that shortcut against an *actual*
discrete-event simulation: cores issue line requests separated by their
compute gaps; a FIFO server drains one line per ``1/capacity`` seconds;
a request completes no earlier than its Eq. 1 latency.

:func:`simulate_controller` returns per-core completion times that
``benchmarks/test_ablation_mcqueue.py`` and the unit tests compare with
:func:`repro.core.timing.solve_core_times`'s predictions — agreement
within a few percent across unsaturated, saturated and asymmetric
workloads is what licenses using the closed form everywhere else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence

from ..sim import Process, Resource, Simulator

__all__ = ["CoreWorkload", "simulate_controller"]


@dataclass(frozen=True)
class CoreWorkload:
    """One core's demand on the controller."""

    compute_time: float   #: total non-memory seconds (the A_c term)
    n_lines: int          #: memory line fetches issued
    latency: float        #: uncontended Eq. 1 round trip for this core

    def __post_init__(self) -> None:
        if self.compute_time < 0 or self.n_lines < 0 or self.latency <= 0:
            raise ValueError("workload terms must be non-negative (latency positive)")


def _core_process(
    sim: Simulator,
    mc: Resource,
    wl: CoreWorkload,
    service: float,
    out: List[float],
    idx: int,
    tracer: Optional[Any] = None,
):
    gap = wl.compute_time / wl.n_lines if wl.n_lines else 0.0
    for _ in range(wl.n_lines):
        yield sim.timeout(gap)
        arrival = sim.now
        if tracer:
            tracer.counter("mc.queue_depth", mc.queue_length, tid=idx)
        yield mc.request()
        if tracer:
            # Queueing delay in front of the controller: >0 only when
            # the FIFO was busy on arrival (the MC-saturation signal).
            tracer.metrics.histogram("mc.wait_s", core=idx).observe(sim.now - arrival)
        yield sim.timeout(service)
        mc.release()
        # The DDR round trip is a latency floor: even an idle controller
        # cannot answer faster than Eq. 1.
        remaining = arrival + wl.latency - sim.now
        if remaining > 0:
            yield sim.timeout(remaining)
    out[idx] = sim.now


def simulate_controller(
    workloads: Sequence[CoreWorkload],
    capacity_lines_per_sec: float,
    line_pipeline_fraction: float = 1.0,
    tracer: Optional[Any] = None,
) -> List[float]:
    """Per-core completion times under FIFO service.

    ``line_pipeline_fraction`` scales the serialized portion of the
    service (1.0 = fully serialized server, the conservative model the
    closed form also assumes).  ``tracer`` (a :class:`repro.obs.Tracer`)
    additionally records queue depth samples plus a wait-time histogram
    per core.
    """
    if capacity_lines_per_sec <= 0:
        raise ValueError("capacity must be positive")
    if not 0.0 < line_pipeline_fraction <= 1.0:
        raise ValueError("line_pipeline_fraction must be in (0, 1]")
    if not workloads:
        raise ValueError("need at least one workload")
    sim = Simulator(tracer=tracer if tracer else None)
    if tracer:
        tracer.bind_clock(lambda: sim.now)
    mc = Resource(sim, capacity=1, name="mc")
    service = line_pipeline_fraction / capacity_lines_per_sec
    out = [0.0] * len(workloads)
    for i, wl in enumerate(workloads):
        Process(
            sim,
            _core_process(sim, mc, wl, service, out, i, tracer),
            name=f"core{i}",
        )
    sim.run()
    return out
