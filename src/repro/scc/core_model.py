"""P54C core timing: compose per-core SpMV time from an access summary.

The P54C is a two-issue in-order Pentium with blocking caches, so core
time decomposes additively::

    T = ( base_work + row_overhead + call_overhead
          + L2_hits * l2_hit_cycles ) / f_core
        + L2_misses * effective_memory_line_time

:class:`AccessSummary` carries the counts;
:func:`repro.sparse.fastpath.base_compute_times` does the cycle
arithmetic and :mod:`repro.core.timing` adds the memory term.  Nothing
here knows about matrices — the CSR-specific trace characterization
lives in :mod:`repro.core.trace`.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["AccessSummary", "core_flops"]


@dataclass(frozen=True)
class AccessSummary:
    """Cache-level outcome counts of one core's kernel execution.

    ``l2_misses`` are *lines fetched from memory* (each stalls the core
    for the effective memory line time).  ``l2_hits`` are L1 misses that
    the L2 served.  L1 hits are folded into ``base_cycles``.
    """

    nnz: int                 #: nonzeros processed by this core
    rows: int                #: rows processed by this core
    iterations: int          #: SpMV repetitions timed
    l2_hits: float           #: L1-miss/L2-hit count (total, all iterations)
    l2_misses: float         #: memory line fetches (total, all iterations)

    def __post_init__(self) -> None:
        if self.nnz < 0 or self.rows < 0 or self.iterations < 0:
            raise ValueError("counts must be non-negative")
        if self.l2_hits < 0 or self.l2_misses < 0:
            raise ValueError("cache counts must be non-negative")

    @property
    def flops(self) -> int:
        """Floating-point operations: 2 per nonzero per iteration (paper Sec. IV)."""
        return 2 * self.nnz * self.iterations


def core_flops(summary: AccessSummary, time_seconds: float) -> float:
    """FLOPS/s given a summary and its execution time."""
    if time_seconds <= 0:
        raise ValueError(f"time must be positive, got {time_seconds}")
    return summary.flops / time_seconds
