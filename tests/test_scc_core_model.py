"""Tests for the P54C timing composition."""

from __future__ import annotations

import pytest

import numpy as np

from repro.core import solve_core_times
from repro.machine import SCCMachine
from repro.scc import CONF0, AccessSummary, DEFAULT_TIMING, P54CTimingParams
from repro.sparse.fastpath import BatchedSummaries, base_compute_times


def summary(nnz=1000, rows=100, iters=1, l2_hits=0.0, l2_misses=0.0):
    return AccessSummary(nnz=nnz, rows=rows, iterations=iters, l2_hits=l2_hits, l2_misses=l2_misses)


def compute_time(s, core_mhz, timing=DEFAULT_TIMING):
    """Core-clock seconds of one summary, solved as a one-UE batch."""
    batch = BatchedSummaries(
        nnz=np.array([s.nnz]),
        rows=np.array([s.rows]),
        iterations=s.iterations,
        l2_hits=np.array([float(s.l2_hits)]),
        l2_misses=np.array([float(s.l2_misses)]),
    )
    [t] = base_compute_times(batch, np.array([float(core_mhz)]), timing)
    return float(t)


class TestAccessSummary:
    def test_flops_is_2nnz_per_iteration(self):
        assert summary(nnz=500, iters=3).flops == 3000

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            AccessSummary(nnz=-1, rows=0, iterations=1, l2_hits=0, l2_misses=0)
        with pytest.raises(ValueError):
            AccessSummary(nnz=1, rows=0, iterations=1, l2_hits=-1, l2_misses=0)
        with pytest.raises(ValueError):
            AccessSummary(nnz=1, rows=0, iterations=1, l2_hits=0, l2_misses=-2)


class TestCoreTime:
    def test_pure_compute_scales_with_frequency(self):
        s = summary()
        t533 = compute_time(s, 533)
        t800 = compute_time(s, 800)
        assert t533 / t800 == pytest.approx(800 / 533)

    def test_compute_cycles_composition(self):
        tp = P54CTimingParams(
            base_cycles_per_nnz=10,
            row_overhead_cycles=20,
            l2_hit_cycles=15,
            call_overhead_cycles=100,
        )
        s = summary(nnz=1000, rows=50, iters=2, l2_hits=30)
        cycles = 10 * 1000 * 2 + 20 * 50 * 2 + 100 * 2 + 15 * 30
        assert compute_time(s, 100, tp) == pytest.approx(cycles / 100e6)

    def test_memory_term_independent_of_core_clock(self):
        assert compute_time(summary(l2_misses=1000), 533) == compute_time(summary(), 533)

    def test_memory_term_additive(self):
        s = summary(l2_misses=1000)
        [t] = solve_core_times([s], [0], CONF0, SCCMachine().memory_system(CONF0))
        assert t.time - compute_time(s, 533) == pytest.approx(1000 * t.line_time)

    def test_row_overhead_hurts_short_rows(self):
        """Same nnz split over 10x more rows runs slower (paper Sec. IV-B)."""
        long_rows = summary(nnz=10000, rows=100)
        short_rows = summary(nnz=10000, rows=5000)
        assert compute_time(short_rows, 533) > compute_time(long_rows, 533)


class TestDefaultCalibration:
    def test_l2_resident_per_core_rate_near_anchor(self):
        """Calibration anchor: ~42 MFLOPS/s per core when L2-resident.

        (24 cores x ~42 MF/s ~= the paper's 'up to 1 GFLOPS/s' for
        matrices that fit in L2, Sec. IV-B.)
        """
        nnz, rows = 100_000, 5_000
        # Streaming L1 misses that hit L2: ~0.42 lines per nnz.
        s = summary(nnz=nnz, rows=rows, iters=1, l2_hits=0.42 * nnz)
        t = compute_time(s, 533)
        mflops = 2 * nnz / t / 1e6
        assert 35 <= mflops <= 50

    def test_single_core_memory_bound_rate_near_anchor(self):
        """~20-27 MFLOPS/s for one core streaming from memory."""
        nnz, rows = 100_000, 5_000
        s = summary(nnz=nnz, rows=rows, iters=1, l2_misses=0.42 * nnz)
        t = compute_time(s, 533) + s.l2_misses * 132.5e-9
        mflops = 2 * nnz / t / 1e6
        assert 18 <= mflops <= 30
