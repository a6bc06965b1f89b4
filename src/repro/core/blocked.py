"""Timing model for BCSR SpMV on the SCC.

Extends the study beyond the paper: given the traffic trade of register
blocking (:mod:`repro.sparse.bcsr`), would it actually have paid off on
the SCC?  The model mirrors the CSR pipeline — each block-row slice
is one :class:`~repro.core.trace.UETrace`, folded and solved as CSR
traces are:

- streams: one 4 B index + ``8*r*c`` B of values per block, 4 B of
  block-ptr per block row, 8 B of ``y`` per row;
- gather: one ``c``-wide ``x`` load per block, analyzed with the same
  footprint locality model at line granularity;
- compute: the blocked kernel multiplies the *stored* cells — fill-in
  costs cycles and bandwidth, while FLOPS are credited only for the
  structural nonzeros (2 per nonzero, as the paper counts).

:func:`run_bcsr_timing` returns a result comparable with
:class:`~repro.core.experiment.ExperimentResult` on the same matrix, so
``benchmarks/test_ext_bcsr.py`` can report simulated CSR-vs-BCSR
MFLOPS/s, not just traffic ratios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Union

import numpy as np

from ..machine.sccmachine import SCCMachine
from ..scc.chip import CONF0, SCCConfig
from ..scc.locality import miss_ratio_curve
from ..scc.params import CACHE_LINE_BYTES, DEFAULT_TIMING, L1D_BYTES, L2_BYTES, P54CTimingParams
from ..scc.topology import SCCTopology
from ..sparse.bcsr import BCSRMatrix
from ..sparse.fastpath import batch_access_summaries, batch_traces
from .experiment import DEFAULT_ITERATIONS
from .mapping import get_mapping
from .timing import solve_core_times_batched
from .trace import DEFAULT_X_CAPACITY_FRACTION, UETrace, _stream_lines

__all__ = ["BCSRTimingResult", "run_bcsr_timing"]


@dataclass(frozen=True)
class BCSRTimingResult:
    """Simulated execution of the blocked kernel."""

    r: int
    c: int
    n_cores: int
    iterations: int
    makespan: float
    structural_nnz: int
    stored_cells: int

    @property
    def flops(self) -> int:
        """Useful work: 2 flops per structural nonzero, as for CSR."""
        return 2 * self.structural_nnz * self.iterations

    @property
    def mflops(self) -> float:
        """Useful MFLOPS/s (structural flops over the makespan)."""
        return self.flops / self.makespan / 1e6

    @property
    def fill_ratio(self) -> float:
        """Stored cells per structural nonzero (>= 1)."""
        return self.stored_cells / self.structural_nnz if self.structural_nnz else 1.0


def _block_row_partition(b: BCSRMatrix, n_parts: int) -> List[int]:
    """Block-row bounds balancing stored blocks per part."""
    targets = (np.arange(1, n_parts) * (b.n_blocks / n_parts)).astype(np.float64)
    interior = b.block_ptr[1:-1]
    cuts = np.searchsorted(interior, targets, side="left") + 1 if b.n_block_rows > 1 else np.array([], dtype=np.int64)
    bounds = [0]
    for cut in cuts.tolist():
        bounds.append(max(min(int(cut), b.n_block_rows), bounds[-1]))
    bounds.append(b.n_block_rows)
    for i in range(1, len(bounds)):
        bounds[i] = max(bounds[i], bounds[i - 1])
    return bounds


def run_bcsr_timing(
    b: BCSRMatrix,
    n_cores: int = 48,
    config: SCCConfig = CONF0,
    mapping: Union[str, Sequence[int]] = "distance_reduction",
    iterations: int = DEFAULT_ITERATIONS,
    topology: SCCTopology | None = None,
    timing: P54CTimingParams = DEFAULT_TIMING,
    x_capacity_fraction: float = DEFAULT_X_CAPACITY_FRACTION,
) -> BCSRTimingResult:
    """Simulate ``iterations`` blocked SpMVs on ``n_cores`` SCC cores."""
    if iterations < 1 or n_cores < 1:
        raise ValueError("iterations and n_cores must be >= 1")
    if not 0.0 < x_capacity_fraction <= 1.0:
        raise ValueError(f"x_capacity_fraction must be in (0, 1], got {x_capacity_fraction}")
    topo = topology or SCCTopology()
    core_map = (
        get_mapping(mapping)(n_cores, topo) if isinstance(mapping, str) else list(mapping)
    )
    if len(core_map) != n_cores:
        raise ValueError(f"mapping names {len(core_map)} cores but n_cores={n_cores}")

    bounds = _block_row_partition(b, n_cores)
    line = CACHE_LINE_BYTES
    x_l1_cap = L1D_BYTES * x_capacity_fraction / line
    x_l2_cap = L2_BYTES * x_capacity_fraction / line
    cell_bytes = 8 * b.r * b.c

    traces = []
    for k in range(n_cores):
        lo, hi = bounds[k], bounds[k + 1]
        blk_lo, blk_hi = int(b.block_ptr[lo]), int(b.block_ptr[hi])
        n_blocks = blk_hi - blk_lo
        n_brows = hi - lo
        n_rows = n_brows * b.r
        stream = (
            _stream_lines(4 * n_blocks, line)        # block_index
            + _stream_lines(cell_bytes * n_blocks, line)  # values
            + _stream_lines(4 * n_brows, line)       # block_ptr
            + _stream_lines(8 * n_rows, line)        # y
        )
        if n_blocks:
            x_lines = (b.block_index[blk_lo:blk_hi].astype(np.int64) * b.c * 8) // line
            mrc = miss_ratio_curve(x_lines)
            # A c-wide x load may straddle lines; charge the extra span.
            span = max(int(np.ceil(b.c * 8 / line)), 1)
            x_l1 = float(mrc.misses(x_l1_cap)) * span
            x_l2 = float(mrc.misses(x_l2_cap)) * span
            x_distinct = mrc.profile.n_lines * span
        else:
            x_l1 = x_l2 = 0.0
            x_distinct = 0
        ws = cell_bytes * n_blocks + 4 * n_blocks + 12 * n_rows + x_distinct * line
        # Compute charges the fill-in; one loop body per block row.
        traces.append(UETrace(
            ue=k, nnz=n_blocks * b.r * b.c, rows=n_brows, stream_lines=stream,
            distinct_lines=stream + x_distinct, x_l1_misses=x_l1, x_l2_misses=x_l2,
            x_distinct_lines=x_distinct, ws_bytes=ws,
        ))

    summaries = batch_access_summaries(
        batch_traces(traces), iterations, l2_enabled=config.l2_enabled, l2_bytes=L2_BYTES
    )
    mem_system = SCCMachine().memory_system(config, topo)
    timings = solve_core_times_batched(summaries, core_map, config, mem_system, timing)
    makespan = max(t.time for t in timings)
    return BCSRTimingResult(
        r=b.r,
        c=b.c,
        n_cores=n_cores,
        iterations=iterations,
        makespan=makespan,
        structural_nnz=b.nnz_stored,
        stored_cells=b.n_blocks * b.r * b.c,
    )
