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

The simulation is one specialized event loop over a heap of
``(time, seq, core, phase)`` tuples.  It pushes entries in the order
the generic coroutine engine (:mod:`repro.sim`) would with one process
per core: ``seq`` breaks time ties in push order, and symmetric
workloads tie on every arrival, so FIFO order — and every completion
time, bit for bit — depends on that order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import List, Sequence

__all__ = ["CoreWorkload", "simulate_controller"]

# Heap entry phases: what a core does when its entry pops.
_ARRIVE = 0    # compute gap over: the line request reaches the controller
_GRANTED = 1   # zero-delay resume after a grant on an idle controller
_SERVED = 2    # service over: release the controller, wait out the latency
_RETURNED = 3  # Eq. 1 latency floor over: the line is back


@dataclass(frozen=True)
class CoreWorkload:
    """One core's demand on the controller."""

    compute_time: float   #: total non-memory seconds (the A_c term)
    n_lines: int          #: memory line fetches issued
    latency: float        #: uncontended Eq. 1 round trip for this core

    def __post_init__(self) -> None:
        if self.compute_time < 0 or self.n_lines < 0 or self.latency <= 0:
            raise ValueError("workload terms must be non-negative (latency positive)")


def simulate_controller(
    workloads: Sequence[CoreWorkload], capacity_lines_per_sec: float
) -> List[float]:
    """Per-core completion times under FIFO service.

    Each core alternates a compute gap (``compute_time / n_lines``) with
    one line request; the single server is fully serialized, the
    conservative model the closed form also assumes.  A core with no
    lines finishes at its ``compute_time``.
    """
    if capacity_lines_per_sec <= 0:
        raise ValueError("capacity must be positive")
    if not workloads:
        raise ValueError("need at least one workload")
    service = 1.0 / capacity_lines_per_sec
    out = [wl.compute_time for wl in workloads]
    left = [wl.n_lines for wl in workloads]
    gaps = [wl.compute_time / wl.n_lines if wl.n_lines else 0.0 for wl in workloads]
    latency = [wl.latency for wl in workloads]
    arrival = [0.0] * len(workloads)
    heap: list[tuple[float, int, int, int]] = []
    seq = 0
    for core, n in enumerate(left):
        if n:
            heappush(heap, (gaps[core], seq, core, _ARRIVE))
            seq += 1
    busy = False
    waiters: deque[int] = deque()
    while heap:
        now, _, core, phase = heappop(heap)
        if phase == _ARRIVE:
            arrival[core] = now
            if busy:
                waiters.append(core)
            else:
                busy = True
                heappush(heap, (now, seq, core, _GRANTED))
                seq += 1
            continue
        if phase == _GRANTED:
            heappush(heap, (now + service, seq, core, _SERVED))
            seq += 1
            continue
        if phase == _SERVED:
            # The slot passes straight to the oldest waiter, whose
            # service starts inside this step, before our latency wait.
            if waiters:
                heappush(heap, (now + service, seq, waiters.popleft(), _SERVED))
                seq += 1
            else:
                busy = False
            # The DDR round trip is a latency floor: even an idle
            # controller cannot answer faster than Eq. 1.
            remaining = arrival[core] + latency[core] - now
            if remaining > 0:
                heappush(heap, (now + remaining, seq, core, _RETURNED))
                seq += 1
                continue
        # The line is back: issue the next one after its gap, or finish.
        left[core] -= 1
        if left[core]:
            heappush(heap, (now + gaps[core], seq, core, _ARRIVE))
            seq += 1
        else:
            out[core] = now
    return out
