"""Tests for the SCC roofline model."""

from __future__ import annotations

import pytest

from repro.core import SpMVExperiment
from repro.core.roofline import (
    SCCRoofline,
    locate_matrix,
    matrix_arithmetic_intensity,
)
from repro.scc import CONF0, CONF1
from repro.sparse import banded, build_matrix


@pytest.fixture(scope="module")
def roof48():
    return SCCRoofline(CONF0, list(range(48)))


class TestCeilings:
    def test_empty_core_map_rejected(self):
        with pytest.raises(ValueError):
            SCCRoofline(CONF0, [])

    def test_peak_scales_with_cores(self):
        one = SCCRoofline(CONF0, [0]).peak_gflops
        all48 = SCCRoofline(CONF0, list(range(48))).peak_gflops
        assert all48 == pytest.approx(48 * one)

    def test_peak_scales_with_frequency(self):
        p0 = SCCRoofline(CONF0, [0]).peak_gflops
        p1 = SCCRoofline(CONF1, [0]).peak_gflops
        assert p1 / p0 == pytest.approx(800 / 533)

    def test_bandwidth_counts_reachable_mcs_only(self):
        quad0 = SCCRoofline(CONF0, [0, 1, 2, 3])  # all in quadrant 0
        spread = SCCRoofline(CONF0, [0, 10, 24, 34])  # one per quadrant
        assert spread.bandwidth_gbs == pytest.approx(4 * quad0.bandwidth_gbs)

    def test_bandwidth_scales_with_memory_clock(self):
        b0 = SCCRoofline(CONF0, list(range(48))).bandwidth_gbs
        b1 = SCCRoofline(CONF1, list(range(48))).bandwidth_gbs
        assert b1 / b0 == pytest.approx(1066 / 800)

    def test_attainable_capped_at_peak(self, roof48):
        assert roof48.attainable_gflops(1e9) == pytest.approx(roof48.peak_gflops)

    def test_attainable_linear_below_ridge(self, roof48):
        ai = roof48.ridge_point / 10
        assert roof48.attainable_gflops(ai) == pytest.approx(ai * roof48.bandwidth_gbs)

    def test_invalid_intensity(self, roof48):
        with pytest.raises(ValueError):
            roof48.attainable_gflops(0)


class TestMatrixPlacement:
    def test_streaming_matrix_is_memory_bound(self, roof48):
        a = build_matrix(7, scale=0.5)  # sme3Dc: big working set
        exp = SpMVExperiment(a, name="sme3Dc")
        pt = locate_matrix("sme3Dc", exp.traces(48), roof48)
        assert pt.bound == "memory"
        assert 0 < pt.arithmetic_intensity < roof48.ridge_point

    def test_resident_matrix_is_compute_bound_with_iterations(self, roof48):
        a = banded(2000, 8.0, 10, seed=9)  # tiny: fits L2 everywhere
        exp = SpMVExperiment(a, name="tiny")
        pt = locate_matrix("tiny", exp.traces(48), roof48, iterations=64)
        assert pt.bound == "compute"
        assert pt.attainable_gflops == pytest.approx(roof48.peak_gflops)

    def test_intensity_rises_with_iterations_when_resident(self):
        a = banded(2000, 8.0, 10, seed=9)
        exp = SpMVExperiment(a, name="tiny")
        traces = exp.traces(8)
        ai1 = matrix_arithmetic_intensity(traces, iterations=1)
        ai8 = matrix_arithmetic_intensity(traces, iterations=8)
        assert ai8 > ai1

    def test_roofline_bounds_simulated_performance(self, roof48):
        """The simulator must never report more than the roofline allows."""
        a = build_matrix(14, scale=0.3)  # sparsine: scattered
        exp = SpMVExperiment(a, name="sparsine")
        r = exp.run(n_cores=48, iterations=16)
        pt = locate_matrix("sparsine", exp.traces(48), roof48, iterations=16)
        assert r.gflops <= pt.attainable_gflops * 1.05


#: (Table I id, UEs) -> ``float.hex`` arithmetic intensity at scale 0.02
#: and 16 iterations, (L2 on, L2 off), captured when the intensity still
#: summed per-element summaries.
INTENSITY_PINS = {
    (7, 1): ("0x1.4a8e58e365435p-3", "0x1.4a8e58e365435p-3"),
    (7, 8): ("0x1.44a8b6531e5cep+1", "0x1.44a8b6531e5cep-3"),
    (7, 48): ("0x1.279e8ed617ee6p+1", "0x1.279e8ed617ee6p-3"),
    (14, 1): ("0x1.439742dc27a89p-3", "0x1.439742dc27a89p-3"),
    (14, 8): ("0x1.1a642aab749a3p+1", "0x1.1a642aab749a3p-3"),
    (14, 48): ("0x1.53184698a01b6p+0", "0x1.53184698a01b6p-4"),
    (24, 1): ("0x1.de64d18b5de65p+0", "0x1.de64d18b5de65p-4"),
    (24, 8): ("0x1.264f0cc50441bp+0", "0x1.264f0cc50441bp-4"),
    (24, 48): ("0x1.8164ba539babap-1", "0x1.8164ba539babap-5"),
}


@pytest.mark.parametrize("mid,n_ues", sorted(INTENSITY_PINS))
def test_intensity_pins(mid, n_ues):
    traces = SpMVExperiment(build_matrix(mid, 0.02)).traces(n_ues)
    got = tuple(
        matrix_arithmetic_intensity(traces, iterations=16, l2_enabled=l2).hex()
        for l2 in (True, False)
    )
    assert got == INTENSITY_PINS[(mid, n_ues)]
