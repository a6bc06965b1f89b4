"""NumPy-vectorized analytic SpMV timing: the campaign fast path.

The event-driven simulator reproduces every synchronization event of a
run, which is the right tool for protocol studies but a slow way to
sweep the paper's figure grids (cores x mappings x configs x the whole
Table I suite).  Analytic bandwidth/latency models are known to predict
SpMV scaling well (Schubert/Hager/Fehske, arXiv:0910.4836; Chen et al.,
arXiv:1911.08779), and our per-core model is *already* analytic — only
the barrier replay runs through the simulator.  This module batches the
per-core arithmetic over all UEs at once:

* :func:`batch_traces` columnizes per-UE stream characterizations into
  arrays;
* :func:`batch_access_summaries` applies the three cache regimes
  (L2-resident / streaming / L2-off) to every UE in one pass; it is
  the only code that does, and every tier reads its counts from it;
* :func:`base_compute_times`, :func:`memory_latencies` and
  :func:`equilibrium_line_times` vectorize the P54C cycle composition,
  the Eq. 1 latency and the per-controller bandwidth equilibrium of
  :mod:`repro.core.timing`.

Everything here is pure array math — no topology, chip or runtime
imports — so the layer below :mod:`repro.core` stays dependency-clean.
The glue that feeds it cores/frequencies/hop counts lives in
:func:`repro.core.timing.solve_core_times_batched`; the differential
test harness (``tests/test_differential_fastpath.py``) pins the fast
path against the event-driven simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "BatchedTraces",
    "BatchedSummaries",
    "batch_traces",
    "batch_access_summaries",
    "base_compute_times",
    "memory_latencies",
    "equilibrium_line_times",
]


@dataclass(frozen=True)
class BatchedTraces:
    """Columnized per-UE stream characterizations (one array per field).

    Built from any sequence of objects exposing the
    :class:`repro.core.trace.UETrace` fields; kept duck-typed so this
    module does not import upward into :mod:`repro.core`.
    """

    nnz: np.ndarray               #: int64, nonzeros per UE
    rows: np.ndarray              #: int64, rows per UE
    stream_lines: np.ndarray      #: float64, stream L1-miss lines / iter
    x_l1_misses: np.ndarray       #: float64, gather misses at L1 capacity
    x_l2_misses: np.ndarray       #: float64, gather misses at L2 capacity
    x_distinct_lines: np.ndarray  #: float64, distinct x lines touched
    ws_bytes: np.ndarray          #: float64, per-UE working set

    @property
    def n_ues(self) -> int:
        """Number of UEs in the batch."""
        return int(self.nnz.size)


@dataclass(frozen=True)
class BatchedSummaries:
    """Per-UE :class:`repro.scc.core_model.AccessSummary` columns."""

    nnz: np.ndarray        #: int64
    rows: np.ndarray       #: int64
    iterations: int
    l2_hits: np.ndarray    #: float64, total L1-miss/L2-hit count
    l2_misses: np.ndarray  #: float64, total memory line fetches

    @property
    def n_ues(self) -> int:
        """Number of UEs in the batch."""
        return int(self.nnz.size)


def batch_traces(traces: Iterable[Any]) -> BatchedTraces:
    """Columnize UETrace-like records into one :class:`BatchedTraces`."""
    ts = list(traces)
    return BatchedTraces(
        nnz=np.array([t.nnz for t in ts], dtype=np.int64),
        rows=np.array([t.rows for t in ts], dtype=np.int64),
        stream_lines=np.array([t.stream_lines for t in ts], dtype=np.float64),
        x_l1_misses=np.array([t.x_l1_misses for t in ts], dtype=np.float64),
        x_l2_misses=np.array([t.x_l2_misses for t in ts], dtype=np.float64),
        x_distinct_lines=np.array([t.x_distinct_lines for t in ts], dtype=np.float64),
        ws_bytes=np.array([t.ws_bytes for t in ts], dtype=np.float64),
    )


def batch_access_summaries(
    traces: BatchedTraces,
    iterations: int,
    l2_enabled: bool = True,
    no_x_miss: bool = False,
    l2_bytes: int = 256 * 1024,
) -> BatchedSummaries:
    """Fold per-iteration traces into totals for ``iterations`` SpMVs.

    Three regimes (paper Sec. IV-B), evaluated for every UE at once:

    - **L2-resident** (working set <= L2): only the first iteration
      misses to memory; later iterations turn every L1 miss into an L2
      hit.
    - **Streaming** (working set > L2): the streams miss to memory every
      iteration; gather accesses that fit L2 but not L1 are L2 hits.
    - **L2 disabled** (Fig. 7): every L1 miss pays the memory latency.

    ``no_x_miss`` drops the gather's misses (the kernel variant of
    paper Sec. IV-C).  The default ``l2_bytes`` matches
    :data:`repro.scc.params.L2_BYTES`; callers pass it explicitly to
    stay in sync with their chip parameters.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    zeros = np.zeros_like(traces.stream_lines)
    x_l1 = zeros if no_x_miss else traces.x_l1_misses
    x_l2 = zeros if no_x_miss else traces.x_l2_misses
    x_cold = zeros if no_x_miss else traces.x_distinct_lines
    cold = traces.stream_lines + x_cold

    if not l2_enabled:
        mem = (traces.stream_lines + x_l1) * iterations
        l2_hits = zeros
    else:
        resident = traces.ws_bytes <= l2_bytes
        per_iter_l1 = traces.stream_lines + x_l1
        mem = np.where(
            resident,
            cold,
            (traces.stream_lines + x_l2) * iterations,
        )
        l2_hits = np.where(
            resident,
            np.maximum(per_iter_l1 * iterations - cold, 0.0),
            np.maximum(x_l1 - x_l2, 0.0) * iterations,
        )

    return BatchedSummaries(
        nnz=traces.nnz,
        rows=traces.rows,
        iterations=iterations,
        l2_hits=l2_hits,
        l2_misses=mem,
    )


def base_compute_times(
    summaries: BatchedSummaries,
    core_mhz: np.ndarray,
    timing: Any,
) -> np.ndarray:
    """Per-UE core-clock seconds excluding memory stalls (the A_c terms).

    ``timing`` is any object with the
    :class:`repro.scc.params.P54CTimingParams` cycle fields (duck-typed
    to keep this module free of upward imports).
    """
    it = summaries.iterations
    cycles = (
        timing.base_cycles_per_nnz * summaries.nnz * it
        + timing.row_overhead_cycles * summaries.rows * it
        + timing.call_overhead_cycles * it
        + timing.l2_hit_cycles * summaries.l2_hits
    )
    return cycles / (core_mhz * 1e6)


def memory_latencies(
    hops: np.ndarray,
    core_mhz: np.ndarray,
    mesh_mhz: float,
    mem_mhz: float,
    lat_core_cycles: float,
    lat_mesh_cycles_per_hop: float,
    lat_mem_cycles: float,
) -> np.ndarray:
    """Vectorized Eq. 1 round-trip latency (seconds) per UE."""
    t_core = lat_core_cycles / (core_mhz * 1e6)
    t_mesh = lat_mesh_cycles_per_hop * hops / (mesh_mhz * 1e6)
    t_mem = lat_mem_cycles / (mem_mhz * 1e6)
    return t_core + t_mesh + t_mem


def _equilibrium_t_star(
    members: Sequence[tuple],
    capacity: float,
    tol: float,
    max_iter: int,
) -> float:
    """One controller's equilibrium service time (bracket + bisection).

    ``members`` holds ``(base_time, mem_lines, latency)`` per core of the
    group; cores without memory lines add no demand.  This is the only
    bisection of the controller law (docs/MODEL.md §5).  The demand sum
    deliberately runs as a sequential interpreter loop — controller
    groups hold at most a dozen cores, where ufunc dispatch costs more
    than the arithmetic, and left-to-right summation keeps every
    bisection iterate reproducible bit for bit
    (``tests/test_core_timing.py`` pins them).
    """
    triples = [(a, m, la) for a, m, la in members if m > 0]

    def demand(t: float) -> float:
        total = 0.0
        for a, m, la in triples:
            total += m / (a + m * (t if t > la else la))
        return total

    lo = min(la for _a, _m, la in members)
    if demand(lo) <= capacity:
        return lo
    hi = max(lo, 1e-9)
    while demand(hi) > capacity:
        hi *= 2.0
        if hi > 1.0:  # 1 s/line would be ~10^9x the real latency
            return hi
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if demand(mid) > capacity:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol * hi:
            break
    return hi


def equilibrium_line_times(
    base_times: np.ndarray,
    mem_lines: np.ndarray,
    latencies: np.ndarray,
    mc_index: np.ndarray,
    capacities: Sequence[float],
    tol: float = 1e-4,
    max_iter: int = 100,
    groups: Optional[Sequence[tuple]] = None,
) -> np.ndarray:
    """Effective seconds-per-line for every UE under MC bandwidth sharing.

    ``mc_index`` assigns each UE to a memory controller; ``capacities``
    gives each controller's line rate (lines/sec).  Controllers are
    solved independently; each member core floors at its own Eq. 1
    latency.

    ``groups`` — precomputed ``(member_indices, capacity)`` pairs, one
    per occupied controller — skips the per-call grouping; sweeps derive
    it once per mapping/config from ``mc_index`` and pass it in.
    """
    base_l = base_times.tolist()
    lines_l = mem_lines.tolist()
    lat_l = latencies.tolist()
    if groups is None:
        by_mc: dict = {}
        for i, mc in enumerate(mc_index.tolist()):
            by_mc.setdefault(mc, []).append(i)
        groups = [(idx, float(capacities[mc])) for mc, idx in by_mc.items()]
    out = [0.0] * len(base_l)
    for idx, capacity in groups:
        t_star = _equilibrium_t_star(
            [(base_l[i], lines_l[i], lat_l[i]) for i in idx],
            capacity,
            tol,
            max_iter,
        )
        for i in idx:
            la = lat_l[i]
            out[i] = t_star if t_star > la else la
    return np.asarray(out, dtype=np.float64)
