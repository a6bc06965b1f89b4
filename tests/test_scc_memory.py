"""Tests for the SCC memory system: Eq. 1 latency and MC bandwidth.

The SCC's memory system is the zoo's table-driven one built from the
:mod:`repro.scc.params` constants, and Eq. 1 has one implementation,
:func:`repro.sparse.fastpath.memory_latencies`; these tests drive it
with the coefficients the SCC machine supplies.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.timing import _chip_arrays
from repro.machine import SCCMachine
from repro.scc import CONF0, CONF1, SCCConfig
from repro.scc.params import (
    LAT_CORE_CYCLES,
    LAT_MEM_CYCLES,
    LAT_MESH_CYCLES_PER_HOP,
    MC_BANDWIDTH_BYTES_PER_SEC_AT_800,
)
from repro.sparse.fastpath import memory_latencies

SCC = SCCMachine()


def eq1(hops: int, core_mhz: float, mesh_mhz: float, mem_mhz: float) -> float:
    """Eq. 1 round-trip latency (seconds) with the SCC's coefficients."""
    mem = SCC.memory_system(SCCConfig.uniform("eq1", core_mhz, mesh_mhz, mem_mhz))
    return float(
        memory_latencies(
            np.float64(hops),
            np.float64(core_mhz),
            mesh_mhz,
            mem.mem_mhz,
            mem.lat_core_cycles,
            mem.lat_mesh_cycles_per_hop,
            mem.lat_mem_cycles,
        )
    )


class TestLatencyFormula:
    def test_zero_hop_default_clocks(self):
        t = eq1(0, 533, 800, 800)
        expected = LAT_CORE_CYCLES / 533e6 + LAT_MEM_CYCLES / 800e6
        assert t == pytest.approx(expected)

    def test_hop_term_linear(self):
        base = eq1(0, 533, 800, 800)
        per_hop = LAT_MESH_CYCLES_PER_HOP / 800e6
        for h in range(1, 5):
            assert eq1(h, 533, 800, 800) == pytest.approx(base + h * per_hop)

    def test_three_hops_adds_about_23_percent(self):
        """Eq. 1 at default clocks: 3 hops raise latency 132.5 -> 162.5 ns."""
        t0 = eq1(0, 533, 800, 800)
        t3 = eq1(3, 533, 800, 800)
        assert t0 == pytest.approx(132.5e-9, rel=1e-3)
        assert t3 == pytest.approx(162.5e-9, rel=1e-3)

    def test_faster_clocks_reduce_latency(self):
        slow = eq1(2, 533, 800, 800)
        fast = eq1(2, 800, 1600, 1066)
        assert fast < slow

    def test_invalid_arguments(self, topology):
        """No invalid Eq. 1 input gets in: each is rejected where it enters."""
        with pytest.raises(ValueError):
            topology.hops_to_mc(-1)
        with pytest.raises(ValueError):
            SCCConfig.uniform("bad", core_mhz=0)
        with pytest.raises(ValueError):
            SCCConfig.uniform("bad", mesh_mhz=-1)
        with pytest.raises(ValueError):
            SCCConfig.uniform("bad", mem_mhz=0)


class TestMemorySystem:
    def test_four_controllers(self):
        mem = SCC.memory_system(CONF0)
        assert [mc.index for mc in mem.controllers] == [0, 1, 2, 3]

    def test_bandwidth_scales_with_clock(self):
        m800 = SCC.memory_system(CONF0)
        m1066 = SCC.memory_system(CONF1)
        ratio = m1066.controllers[0].bandwidth / m800.controllers[0].bandwidth
        assert ratio == pytest.approx(1066 / 800)
        assert m800.controllers[0].bandwidth == pytest.approx(
            MC_BANDWIDTH_BYTES_PER_SEC_AT_800
        )

    def test_invalid_clock(self):
        with pytest.raises(ValueError, match="mem_mhz"):
            replace(SCC.memory_system(CONF0), mem_mhz=0)

    def test_controller_of_core_matches_quadrant(self, topology):
        mem = SCC.memory_system(CONF0)
        for q in range(4):
            for core in topology.cores_of_quadrant(q):
                assert mem.controllers[topology.mc_index_of_core(core)].index == q

    def test_latency_for_core_uses_hops(self, topology):
        c0 = topology.cores_at_distance(0)[0]
        c3 = topology.cores_at_distance(3)[0]
        _, latencies, *_ = _chip_arrays([c0, c3], CONF0, SCC.memory_system(CONF0))
        assert latencies[1] > latencies[0]
        assert latencies[1] - latencies[0] == pytest.approx(
            3 * LAT_MESH_CYCLES_PER_HOP / 800e6
        )

    def test_variant_is_a_distinct_value(self):
        """A re-parameterized copy changes only what it names."""
        mem = SCC.memory_system(CONF0)
        flat = replace(mem, lat_mesh_cycles_per_hop=0.0)
        assert flat is not mem and flat != mem
        assert flat.lat_mesh_cycles_per_hop == 0.0
        assert mem.lat_mesh_cycles_per_hop == LAT_MESH_CYCLES_PER_HOP
        assert [c.bandwidth for c in flat.controllers] == [
            c.bandwidth for c in mem.controllers
        ]
