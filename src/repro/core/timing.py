"""Per-core time composition with memory-controller contention.

Core time depends on the effective per-line memory time, which depends
on every core's demand on its controller, which depends on core time.
Rather than iterating that circular dependency (which oscillates around
the saturation point), :func:`solve_core_times` solves it exactly, one
controller at a time:

With ``A_c`` the core-clock seconds of core ``c`` (compute + L2 hits),
``M_c`` its memory line count, and ``T`` the controller's effective
per-line service time, the demand a controller sees is::

    D(T) = sum_c M_c / (A_c + M_c * max(T, latency_c))   [lines/sec]

``D`` is strictly decreasing in ``T``.  If ``D(latency)`` is below the
controller's capacity ``R = bandwidth / line_bytes``, the controller is
unsaturated and every core just pays its Eq. 1 latency.  Otherwise the
equilibrium is the unique ``T*`` with ``D(T*) = R``, found by
bisection; each core then sees ``max(T*, latency_c)``.  The bisection
lives in :mod:`repro.sparse.fastpath`; both solvers here feed it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..machine.base import MachineConfig
from ..rcce.mpb import chunked_transfer_time
from ..scc.core_model import AccessSummary
from ..scc.params import DEFAULT_TIMING, P54CTimingParams
from ..sparse.fastpath import (
    BatchedSummaries,
    base_compute_times,
    equilibrium_line_times,
    memory_latencies,
)

__all__ = [
    "CoreTiming",
    "solve_core_times",
    "solve_core_times_batched",
    "barrier_schedule",
    "resolve_barrier_schedule",
    "barrier_exit_times",
]

#: every collective payload in the barrier is one Python int (8 bytes on
#: the wire, matching :func:`repro.rcce.api.payload_bytes`).
BARRIER_TOKEN_BYTES = 8


class CoreTiming(NamedTuple):
    """Solved execution time of one UE on one core.

    A ``NamedTuple`` rather than a dataclass: sweeps materialize one per
    UE per run, and tuple construction keeps the fast path fast.  The
    field API (and field order) is unchanged.
    """

    ue: int
    core: int
    time: float
    line_time: float      # effective seconds per memory line fetch
    mem_lines: float      # memory line fetches over the whole run

    @property
    def mem_stall_fraction(self) -> float:
        """Share of this core's time spent in memory stalls."""
        return min(self.mem_lines * self.line_time / self.time, 1.0) if self.time > 0 else 0.0


def solve_core_times(
    summaries: Sequence[AccessSummary],
    core_map: Sequence[int],
    config: MachineConfig,
    mem: Any,
    timing: P54CTimingParams = DEFAULT_TIMING,
) -> List[CoreTiming]:
    """Exact per-core times under MC bandwidth sharing.

    Columnizes the per-UE summaries and solves them with
    :func:`solve_core_times_batched`, the one controller solver.  A
    batch holds one iteration count, so mixed counts are rejected.
    """
    iterations = {s.iterations for s in summaries}
    if len(iterations) > 1:
        raise ValueError(f"summaries have mixed iterations {sorted(iterations)}")
    batch = BatchedSummaries(
        nnz=np.array([s.nnz for s in summaries], dtype=np.int64),
        rows=np.array([s.rows for s in summaries], dtype=np.int64),
        iterations=iterations.pop() if iterations else 1,
        l2_hits=np.array([s.l2_hits for s in summaries], dtype=np.float64),
        l2_misses=np.array([s.l2_misses for s in summaries], dtype=np.float64),
    )
    return solve_core_times_batched(batch, core_map, config, mem, timing)


def _chip_arrays(
    core_map: Sequence[int],
    config: MachineConfig,
    mem: Any,
    cache: Optional[Dict] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, List[float], List[Tuple]]:
    """(freqs, latencies, mc_index, capacities, groups) for one mapping+config.

    ``groups`` pairs each occupied controller's member indices with its
    line capacity, precomputed for
    :func:`repro.sparse.fastpath.equilibrium_line_times`.  All five are
    pure functions of the mapping, the config and the memory system —
    the expensive per-core topology lookups are memoized in ``cache``,
    keyed by the memory-system object itself, so two machines (or a
    machine and a re-parameterized copy) never collide.  The
    Eq.-1-form latency coefficients come from the memory system, so
    every machine's values flow through the same vectorized path.
    """
    key = (mem, tuple(core_map), config)
    if cache is not None and key in cache:
        return cache[key]
    cores = list(core_map)
    topo = mem.topology
    freqs = np.array([config.core_mhz_of_core(c) for c in cores], dtype=np.float64)
    hops = np.array([topo.hops_to_mc(c) for c in cores], dtype=np.float64)
    mc_index = np.array([topo.mc_index_of_core(c) for c in cores], dtype=np.int64)
    capacities = [mc.bandwidth / mem.line_bytes for mc in mem.controllers]
    latencies = memory_latencies(
        hops,
        freqs,
        config.mesh_mhz,
        mem.mem_mhz,
        mem.lat_core_cycles,
        mem.lat_mesh_cycles_per_hop,
        mem.lat_mem_cycles,
    )
    by_mc: Dict[int, List[int]] = {}
    for i, mc_i in enumerate(mc_index.tolist()):
        by_mc.setdefault(mc_i, []).append(i)
    groups = [(idx, float(capacities[mc_i])) for mc_i, idx in by_mc.items()]
    out = (freqs, latencies, mc_index, capacities, groups)
    if cache is not None:
        cache[key] = out
    return out


def solve_core_times_batched(
    batch: BatchedSummaries,
    core_map: Sequence[int],
    config: MachineConfig,
    mem: Any,
    timing: P54CTimingParams = DEFAULT_TIMING,
    cache: Optional[Dict] = None,
) -> List[CoreTiming]:
    """Exact per-core times under MC bandwidth sharing, batched summaries.

    The per-core arithmetic runs as array expressions and the
    per-controller equilibrium as one bisection per occupied controller
    (:mod:`repro.sparse.fastpath`).  ``tests/test_core_timing.py`` pins
    its per-core times bit for bit, and the differential tests pin the
    whole fast path against the simulator.  ``cache`` memoizes the
    mapping/config-derived arrays across calls; pass a dict owned by the
    sweep.
    """
    if batch.n_ues != len(core_map):
        raise ValueError(
            f"{batch.n_ues} summaries for {len(core_map)} cores — must match"
        )
    if mem.mem_mhz != config.mem_mhz:
        raise ValueError(
            f"memory system clocked at {mem.mem_mhz} MHz but config says {config.mem_mhz}"
        )
    freqs, latencies, mc_index, capacities, groups = _chip_arrays(
        core_map, config, mem, cache
    )
    base_times = base_compute_times(batch, freqs, timing)
    mem_lines = batch.l2_misses.astype(np.float64)
    line_time = equilibrium_line_times(
        base_times, mem_lines, latencies, mc_index, capacities, groups=groups
    )
    times = base_times + mem_lines * line_time
    rows = zip(
        range(len(core_map)), core_map, times.tolist(), line_time.tolist(), mem_lines.tolist()
    )
    return list(map(CoreTiming._make, rows))


@lru_cache(maxsize=None)
def barrier_schedule(n: int) -> Tuple[Tuple[int, int], ...]:
    """The (sender, receiver) rank pairs of one barrier, in execution order.

    A barrier is a binomial reduce to rank 0 followed by a binomial bcast
    (:mod:`repro.rcce.collectives`); which ranks exchange, and in what
    order, depends only on the UE count.  The reduce phase walks masks
    upward (each rank sends once, at its lowest set bit); the bcast phase
    is the root's depth-first fan-out in decreasing mask order.  Any
    sequentialization that respects each rank's own exchange order yields
    the same critical path, since an exchange touches only its two ranks.
    """
    pairs: List[Tuple[int, int]] = []
    mask = 1
    while mask < n:
        for rel in range(mask, n, 2 * mask):
            # rel = (2k+1)*mask, so its lowest set bit is exactly `mask`.
            pairs.append((rel, rel & ~mask))
        mask <<= 1

    top = 1
    while top < n:
        top <<= 1
    top >>= 1

    def fan(rel: int, start_mask: int) -> None:
        m = start_mask
        while m > 0:
            child = rel + m
            if child < n:
                pairs.append((rel, child))
                fan(child, m >> 1)
            m >>= 1

    fan(0, top)
    return tuple(pairs)


def resolve_barrier_schedule(
    core_map: Sequence[int], mesh: Any
) -> List[Tuple[int, int, float]]:
    """:func:`barrier_schedule` with each pair's token transfer time.

    Returns ``(sender, receiver, seconds)`` triples; callers sweeping
    many runs over a fixed mapping cache the result.
    """
    cores = list(core_map)
    return [
        (s, r, chunked_transfer_time(mesh, cores[s], cores[r], BARRIER_TOKEN_BYTES))
        for s, r in barrier_schedule(len(cores))
    ]


def barrier_exit_times(
    entry_times: Sequence[float],
    core_map: Sequence[int],
    mesh: Optional[Any] = None,
    schedule: Optional[Sequence[Tuple[int, int, float]]] = None,
) -> List[float]:
    """When each UE leaves an RCCE barrier entered at ``entry_times``.

    Propagates the critical path of the barrier's binomial reduce+bcast
    analytically.  Every exchange is a rendezvous of one 8-byte token:
    with the sender arriving at ``t_s`` and the receiver at ``t_r``,
    both resume at ``max(t_s + transfer, t_r)`` — exactly the
    simulator's send/ack semantics — so this recurrence reproduces the
    event-driven barrier timing without scheduling a single event.

    Pass a precomputed ``schedule`` (:func:`resolve_barrier_schedule`)
    to amortize transfer-time lookups across runs; otherwise ``mesh``
    is required and the schedule is resolved on the fly.
    """
    n = len(entry_times)
    if n != len(core_map):
        raise ValueError(f"{n} entry times for {len(core_map)} cores — must match")
    t = [float(v) for v in entry_times]
    if n <= 1:
        return t
    if schedule is None:
        if mesh is None:
            raise ValueError("barrier_exit_times needs a mesh or a resolved schedule")
        schedule = resolve_barrier_schedule(core_map, mesh)
    for s, r, tt in schedule:
        done = t[s] + tt
        if t[r] > done:
            done = t[r]
        t[s] = t[r] = done
    return t
