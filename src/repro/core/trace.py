"""Per-UE characterization of the CSR SpMV access stream.

For each unit of execution's row block, the kernel of Fig. 2 touches:

==========  ============================  ==========================
array        bytes per iteration           pattern
==========  ============================  ==========================
``da``       8 * nnz_u                     unit-stride stream
``index``    4 * nnz_u                     unit-stride stream
``ptr``      4 * rows_u                    unit-stride stream
``y``        8 * rows_u                    unit-stride stream (store)
``x``        8 * nnz_u *touches*           irregular gather
==========  ============================  ==========================

The four streams have trivially predictable cache behaviour (one L1
miss per line per iteration; resident across iterations only if the
whole working set fits).  The ``x`` gather is characterized with the
footprint locality model (:mod:`repro.scc.locality`) evaluated at L1
and L2 capacity.  Streams and gather compete for L2 space; following
the classic shared-cache approximation we charge the gather an
``x_capacity_fraction`` of each level (default 0.5 — ablated in
``benchmarks/test_ablation_locality.py``).

:func:`characterize_partition` produces one :class:`UETrace` per UE;
:func:`access_summary` converts a trace into the
:class:`~repro.scc.core_model.AccessSummary` consumed by the timing
model, applying the experiment's iteration count, kernel variant and
L2 on/off switch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..scc.core_model import AccessSummary
from ..scc.locality import line_links, miss_ratio_curve
from ..scc.params import CACHE_LINE_BYTES, L1D_BYTES, L2_BYTES
from ..sparse.csr import CSRMatrix
from ..sparse.partition import RowPartition

__all__ = ["UETrace", "gather_links", "characterize_partition", "access_summary"]

#: fraction of each cache level the x gather effectively owns while the
#: four streams flow through the remainder.
DEFAULT_X_CAPACITY_FRACTION = 0.5


def _stream_lines(nbytes: int, line_bytes: int) -> int:
    """Cache lines a contiguous nbytes stream occupies (worst alignment)."""
    if nbytes == 0:
        return 0
    return nbytes // line_bytes + 1


@dataclass(frozen=True)
class UETrace:
    """Per-iteration cache events of one UE's row block."""

    ue: int
    nnz: int
    rows: int
    #: L1 miss lines per iteration from the four unit-stride streams.
    stream_lines: int
    #: distinct lines across streams + gather (cold misses, iteration 1).
    distinct_lines: int
    #: gather misses per iteration at L1 capacity (go to L2 or memory).
    x_l1_misses: float
    #: gather misses per iteration at L2 capacity (go to memory).
    x_l2_misses: float
    #: distinct x lines the block touches.
    x_distinct_lines: int
    #: bytes of the block's working set (streams + x footprint).
    ws_bytes: int


def gather_links(a: CSRMatrix, line_bytes: int = CACHE_LINE_BYTES) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`~repro.scc.locality.line_links` of the whole ``x`` gather.

    Every UE's gather is a slice ``[ptr[r0], ptr[r1])`` of this one
    stream, so the links serve every row partition of ``a``.
    """
    return line_links(a.index // (line_bytes // 8))


def characterize_partition(
    a: CSRMatrix,
    partition: RowPartition,
    line_bytes: int = CACHE_LINE_BYTES,
    l1_bytes: int = L1D_BYTES,
    l2_bytes: int = L2_BYTES,
    x_capacity_fraction: float = DEFAULT_X_CAPACITY_FRACTION,
    links: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> List[UETrace]:
    """Analyze every UE's access stream of one balanced row partition.

    ``links`` are :func:`gather_links` of ``a`` at ``line_bytes``; pass
    them to share one sort of the gather stream across partitions.
    """
    if not 0.0 < x_capacity_fraction <= 1.0:
        raise ValueError(f"x_capacity_fraction must be in (0, 1], got {x_capacity_fraction}")
    x_l1_capacity = l1_bytes * x_capacity_fraction / line_bytes
    x_l2_capacity = l2_bytes * x_capacity_fraction / line_bytes
    if links is None:
        links = gather_links(a, line_bytes)

    traces: List[UETrace] = []
    for ue, (r0, r1) in enumerate(partition.ranges()):
        lo, hi = int(a.ptr[r0]), int(a.ptr[r1])
        nnz_u = hi - lo
        rows_u = r1 - r0
        stream = (
            _stream_lines(8 * nnz_u, line_bytes)      # da
            + _stream_lines(4 * nnz_u, line_bytes)    # index
            + _stream_lines(4 * rows_u, line_bytes)   # ptr
            + _stream_lines(8 * rows_u, line_bytes)   # y
        )
        if nnz_u:
            mrc = miss_ratio_curve(links=links, lo=lo, hi=hi)
            x_distinct = mrc.profile.n_lines
            # Steady-state per-iteration misses: capacity misses plus the
            # cold set, which re-misses every iteration unless resident.
            x_l1 = float(mrc.misses(x_l1_capacity))
            x_l2 = float(mrc.misses(x_l2_capacity))
        else:
            x_distinct = 0
            x_l1 = x_l2 = 0.0
        ws = 12 * nnz_u + 12 * rows_u + 4 + x_distinct * line_bytes
        traces.append(
            UETrace(
                ue=ue,
                nnz=nnz_u,
                rows=rows_u,
                stream_lines=stream,
                distinct_lines=stream + x_distinct,
                x_l1_misses=x_l1,
                x_l2_misses=x_l2,
                x_distinct_lines=x_distinct,
                ws_bytes=ws,
            )
        )
    return traces


def access_summary(
    trace: UETrace,
    iterations: int,
    l2_enabled: bool = True,
    no_x_miss: bool = False,
    l2_bytes: int = L2_BYTES,
) -> AccessSummary:
    """Fold a per-iteration trace into totals for ``iterations`` SpMVs.

    Three regimes (paper Sec. IV-B):

    - **L2-resident** (working set <= L2): only the first iteration
      misses to memory; later iterations turn every L1 miss into an L2
      hit.
    - **Streaming** (working set > L2): the streams miss to memory every
      iteration; gather accesses that fit L2 but not L1 are L2 hits.
    - **L2 disabled** (Fig. 7): every L1 miss pays the memory latency.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    x_l1 = 0.0 if no_x_miss else trace.x_l1_misses
    x_l2 = 0.0 if no_x_miss else trace.x_l2_misses
    x_cold = 0 if no_x_miss else trace.x_distinct_lines
    cold = trace.stream_lines + x_cold  # distinct lines ~ cold misses

    if not l2_enabled:
        mem = (trace.stream_lines + x_l1) * iterations
        l2_hits = 0.0
    elif trace.ws_bytes <= l2_bytes:
        # Warm after the first pass: cold misses once, L2 hits after.
        per_iter_l1_misses = trace.stream_lines + x_l1
        mem = float(cold)
        l2_hits = max(per_iter_l1_misses * iterations - cold, 0.0)
    else:
        mem = (trace.stream_lines + x_l2) * iterations
        l2_hits = max(x_l1 - x_l2, 0.0) * iterations

    return AccessSummary(
        nnz=trace.nnz,
        rows=trace.rows,
        iterations=iterations,
        l2_hits=l2_hits,
        l2_misses=mem,
    )
