"""Tests for the structural-figure renderings (Figs. 1, 2, 4)."""

from __future__ import annotations

import numpy as np

from repro.core import (
    chip_diagram,
    csr_example,
    distance_reduction_mapping,
    mapping_diagram,
    standard_mapping,
)
from repro.core.diagrams import FIG2_DENSE
from repro.scc import SCCTopology


class TestChipDiagram:
    def test_all_cores_present(self):
        text = chip_diagram()
        for core in range(48):
            assert f"{core:2d}" in text

    def test_four_mc_markers(self):
        assert chip_diagram().count("MC") == 4

    def test_row_order_top_is_y3(self):
        lines = [l for l in chip_diagram().splitlines() if l.count("[") >= 6]
        assert "36,37" in lines[0]   # tile (0,3) holds cores 36/37
        assert " 0, 1" in lines[-1]  # tile (0,0) holds cores 0/1


class TestCSRExample:
    def test_fig2_arrays(self):
        text = csr_example()
        assert "ptr   = [0, 2, 3, 6, 7, 9]" in text
        assert "index = [0, 2, 1, 0, 2, 3, 3, 1, 4]" in text
        assert "da    = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]" in text

    def test_dots_for_zeros(self):
        text = csr_example()
        assert "." in text

    def test_custom_matrix(self):
        text = csr_example(np.eye(3))
        assert "ptr   = [0, 1, 2, 3]" in text

    def test_fig2_dense_shape(self):
        assert FIG2_DENSE.shape == (5, 5)
        assert np.count_nonzero(FIG2_DENSE) == 9


class TestMappingDiagram:
    def test_all_ues_shown(self):
        text = mapping_diagram(standard_mapping(6))
        for ue in range(6):
            assert f"{ue:2d}" in text

    def test_distance_reduction_touches_all_quadrants(self):
        topo = SCCTopology()
        text = mapping_diagram(distance_reduction_mapping(8, topo), topo)
        rows = [l for l in text.splitlines() if l.count("[") >= 6]
        populated = [any(ch.isdigit() for ch in l) for l in rows]
        assert populated == [False, True, False, True]  # the two MC rows

    def test_empty_tiles_are_dotted(self):
        text = mapping_diagram([0])
        assert "[ .  . ]" in text
