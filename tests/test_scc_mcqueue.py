"""Tests for the event-driven MC queue and its agreement with the
closed-form equilibrium used by the timing solver."""

from __future__ import annotations

import pytest

import numpy as np

from repro.scc.mcqueue import CoreWorkload, simulate_controller
from repro.sparse.fastpath import equilibrium_line_times


class TestValidation:
    def test_empty_and_invalid(self):
        with pytest.raises(ValueError):
            simulate_controller([], 1e6)
        with pytest.raises(ValueError):
            simulate_controller([CoreWorkload(1.0, 10, 1e-7)], 0.0)
        with pytest.raises(ValueError):
            CoreWorkload(-1.0, 10, 1e-7)
        with pytest.raises(ValueError):
            CoreWorkload(1.0, 10, 0.0)


class TestSingleCore:
    def test_unsaturated_time_is_compute_plus_latency(self):
        wl = CoreWorkload(compute_time=1.0, n_lines=1000, latency=100e-9)
        [t] = simulate_controller([wl], capacity_lines_per_sec=1e12)
        assert t == pytest.approx(1.0 + 1000 * 100e-9, rel=1e-6)

    def test_zero_lines_pure_compute(self):
        wl = CoreWorkload(compute_time=0.5, n_lines=0, latency=1e-7)
        [t] = simulate_controller([wl], 1e6)
        assert t == 0.5  # no requests -> the core only computes

    def test_zero_line_core_beside_a_busy_one(self):
        idle = CoreWorkload(compute_time=0.25, n_lines=0, latency=1e-7)
        busy = CoreWorkload(compute_time=0.0, n_lines=100, latency=1e-7)
        alone = simulate_controller([busy], 1e3)[0]
        assert simulate_controller([idle, busy], 1e3) == [0.25, alone]

    def test_slow_server_bounds_single_core(self):
        # Service 1 ms/line dominates the 100 ns latency.
        wl = CoreWorkload(compute_time=0.0, n_lines=100, latency=100e-9)
        [t] = simulate_controller([wl], capacity_lines_per_sec=1000.0)
        assert t == pytest.approx(100 * 1e-3, rel=1e-3)


class TestContention:
    def test_two_cores_share_fairly(self):
        wl = CoreWorkload(compute_time=0.0, n_lines=1000, latency=1e-7)
        times = simulate_controller([wl, wl], capacity_lines_per_sec=1e6)
        # 2000 lines through a 1e6 lines/s server: ~2 ms for both.
        for t in times:
            assert t == pytest.approx(2e-3, rel=0.02)

    def test_light_core_unharmed_by_heavy_neighbour(self):
        light = CoreWorkload(compute_time=1.0, n_lines=10, latency=1e-7)
        heavy = CoreWorkload(compute_time=0.0, n_lines=100_000, latency=1e-7)
        t_alone = simulate_controller([light], 1e6)[0]
        t_shared = simulate_controller([light, heavy], 1e6)[0]
        # The light core's requests queue behind at most one in-flight
        # line each: bounded slowdown.
        assert t_shared < t_alone * 1.05


class TestAgreementWithClosedForm:
    def closed_form_times(self, workloads, capacity):
        base = np.array([w.compute_time for w in workloads])
        lines = np.array([float(w.n_lines) for w in workloads])
        lats = np.array([w.latency for w in workloads])
        mc = np.zeros(len(workloads), dtype=np.int64)
        return (base + lines * equilibrium_line_times(base, lines, lats, mc, [capacity])).tolist()

    @pytest.mark.parametrize(
        "n_cores,capacity",
        [(1, 1e7), (4, 1e7), (12, 1e7), (12, 1e5), (4, 1e4)],
        ids=["1-unsat", "4-mild", "12-mild", "12-saturated", "4-very-saturated"],
    )
    def test_symmetric_workloads(self, n_cores, capacity):
        wl = CoreWorkload(compute_time=0.01, n_lines=2000, latency=150e-9)
        event = simulate_controller([wl] * n_cores, capacity)
        closed = self.closed_form_times([wl] * n_cores, capacity)
        for te, tc in zip(event, closed):
            assert te == pytest.approx(tc, rel=0.10)

    def test_asymmetric_workloads(self):
        workloads = [
            CoreWorkload(compute_time=0.02, n_lines=1000, latency=150e-9),
            CoreWorkload(compute_time=0.005, n_lines=4000, latency=150e-9),
            CoreWorkload(compute_time=0.01, n_lines=2000, latency=180e-9),
        ]
        capacity = 2e5  # saturating
        event = simulate_controller(workloads, capacity)
        closed = self.closed_form_times(workloads, capacity)
        # Asymmetric equilibria agree on the makespan within ~15%.
        assert max(event) == pytest.approx(max(closed), rel=0.15)

    def test_unsaturated_exact_agreement(self):
        workloads = [
            CoreWorkload(compute_time=0.01, n_lines=500, latency=140e-9),
            CoreWorkload(compute_time=0.02, n_lines=300, latency=160e-9),
        ]
        event = simulate_controller(workloads, capacity_lines_per_sec=1e12)
        closed = self.closed_form_times(workloads, 1e12)
        for te, tc in zip(event, closed):
            assert te == pytest.approx(tc, rel=1e-3)


#: Per-core completion times (``float.hex``) recorded with the generic
#: coroutine engine (one process per core, a ``capacity=1`` FIFO
#: resource).  The specialized loop must reproduce them bit for bit:
#: symmetric workloads tie on every arrival, so any change in the order
#: entries are pushed reorders the FIFO and moves these times.
SYMMETRIC_WL = CoreWorkload(compute_time=0.01, n_lines=2000, latency=150e-9)
PINNED = {
    "1-unsat": ([SYMMETRIC_WL], 1e7, (
        "0x1.5182a9930be2ap-7",
    )),
    "4-mild": ([SYMMETRIC_WL] * 4, 1e7, (
        "0x1.5182a9930be2ap-7",
        "0x1.518314f2d64d9p-7",
        "0x1.5183ebb26b238p-7",
        "0x1.5184c271fff97p-7",
    )),
    "12-mild": ([SYMMETRIC_WL] * 12, 1e7, (
        "0x1.5182a9930be2ap-7",
        "0x1.518314f2d64d9p-7",
        "0x1.5183ebb26b238p-7",
        "0x1.5184c271fff97p-7",
        "0x1.5185993194cf5p-7",
        "0x1.51866ff129a54p-7",
        "0x1.518746b0be7b2p-7",
        "0x1.51881d7053511p-7",
        "0x1.5188f42fe826fp-7",
        "0x1.5189caef7cfcep-7",
        "0x1.518aa1af11d2cp-7",
        "0x1.518b786ea6a8bp-7",
    )),
    "12-saturated": ([SYMMETRIC_WL] * 12, 1e5, (
        "0x1.eb4e11dbcb75dp-3",
        "0x1.eb5350092daebp-3",
        "0x1.eb588e368fe79p-3",
        "0x1.eb5dcc63f2207p-3",
        "0x1.eb630a9154595p-3",
        "0x1.eb6848beb6923p-3",
        "0x1.eb6d86ec18cb1p-3",
        "0x1.eb72c5197b03fp-3",
        "0x1.eb780346dd3cdp-3",
        "0x1.eb7d41743f75bp-3",
        "0x1.eb827fa1a1ae9p-3",
        "0x1.eb87bdcf03e77p-3",
    )),
    "4-very-saturated": ([SYMMETRIC_WL] * 4, 1e4, (
        "0x1.9972ef0ae50dfp-1",
        "0x1.99800a7c5a9c1p-1",
        "0x1.998d25edd02a3p-1",
        "0x1.999a415f45b85p-1",
    )),
    "asymmetric": (
        [
            CoreWorkload(compute_time=0.02, n_lines=1000, latency=150e-9),
            CoreWorkload(compute_time=0.005, n_lines=4000, latency=150e-9),
            CoreWorkload(compute_time=0.01, n_lines=2000, latency=180e-9),
        ],
        2e5,
        (
            "0x1.acc4ef88b9aa1p-6",
            "0x1.32b020c49bcd6p-5",
            "0x1.958644523f906p-6",
        ),
    ),
    "unsaturated": (
        [
            CoreWorkload(compute_time=0.01, n_lines=500, latency=140e-9),
            CoreWorkload(compute_time=0.02, n_lines=300, latency=160e-9),
        ],
        1e12,
        (
            "0x1.49f94855da21ap-7",
            "0x1.4877681669cd8p-6",
        ),
    ),
    "12-tied-saturated": (
        [CoreWorkload(compute_time=0.001, n_lines=3000, latency=150e-9)] * 12,
        2e6,
        (
            "0x1.26d3cd2a7992ep-6",
            "0x1.26d5e6096da9ap-6",
            "0x1.26d7fee861c06p-6",
            "0x1.26da17c755d72p-6",
            "0x1.26dc30a649edep-6",
            "0x1.26de49853e04ap-6",
            "0x1.26e06264321b6p-6",
            "0x1.26e27b4326322p-6",
            "0x1.26e494221a48ep-6",
            "0x1.26e6ad010e5fap-6",
            "0x1.26e8c5e002766p-6",
            "0x1.26eadebef68d2p-6",
        ),
    ),
    # Dyadic times tie exactly: core 3 finishes at 3.5 only if a
    # waiter's service starts before the releaser's latency wait.
    "dyadic-ties": (
        [
            CoreWorkload(compute_time=0.0, n_lines=4, latency=0.125),
            CoreWorkload(compute_time=0.0, n_lines=5, latency=0.5),
            CoreWorkload(compute_time=0.0, n_lines=5, latency=2.0),
            CoreWorkload(compute_time=0.0, n_lines=2, latency=0.125),
        ],
        2.0,
        (
            "0x1.8000000000000p+2",
            "0x1.e000000000000p+2",
            "0x1.4000000000000p+3",
            "0x1.c000000000000p+1",
        ),
    ),
}


class TestBitwisePin:
    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_per_core_times_bitwise(self, case):
        workloads, capacity, expected = PINNED[case]
        times = simulate_controller(workloads, capacity)
        assert tuple(t.hex() for t in times) == expected
