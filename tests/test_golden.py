"""Golden regression tests: frozen model outputs.

The model's constants are calibrated and then frozen (DESIGN.md §5);
these tests pin representative *outputs* so accidental drift in any
substrate — partitioner, locality model, contention solver, power —
shows up as a diff, not as silently shifted figures.  Tolerances are
tight (0.5 %) because everything in the pipeline is deterministic.

If a deliberate model change moves these numbers, update the goldens in
the same commit and note the change in EXPERIMENTS.md.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import numpy as np

from repro.core import Campaign, SpMVExperiment, single_core_at_distance
from repro.machine import SCCMachine
from repro.scc import CONF0, CONF1, CONF2
from repro.sparse import build_matrix
from repro.sparse.fastpath import memory_latencies

SCALE = 0.25
REL = 5e-3

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="module")
def sme3dc():
    return SpMVExperiment(build_matrix(7, scale=SCALE), name="sme3Dc")


@pytest.fixture(scope="module")
def na5():
    return SpMVExperiment(build_matrix(30, scale=SCALE), name="Na5")


def eq1(hops, config):
    """Eq. 1 latency of a ``hops``-away core with the SCC's coefficients."""
    mem = SCCMachine().memory_system(config)
    return float(memory_latencies(
        np.float64(hops), np.float64(config.core_mhz), config.mesh_mhz, mem.mem_mhz,
        mem.lat_core_cycles, mem.lat_mesh_cycles_per_hop, mem.lat_mem_cycles,
    ))


class TestGoldenLatencies:
    def test_eq1_values(self):
        assert eq1(0, CONF0) == pytest.approx(132.55e-9, rel=1e-4)
        assert eq1(3, CONF0) == pytest.approx(162.55e-9, rel=1e-4)
        assert eq1(0, CONF1) == pytest.approx(93.15e-9, rel=1e-3)


class TestGoldenPower:
    def test_config_wattages(self):
        assert CONF0.full_chip_power() == pytest.approx(83.31, rel=REL)
        assert CONF1.full_chip_power() == pytest.approx(107.40, rel=REL)
        assert CONF2.full_chip_power() == pytest.approx(105.74, rel=REL)


class TestGoldenThroughput:
    """Pinned MFLOPS/s of representative runs at scale 0.25."""

    def test_single_core_memory_bound(self, sme3dc):
        r = sme3dc.run(n_cores=1, mapping=single_core_at_distance(0))
        assert r.mflops == pytest.approx(24.55, rel=0.02)

    def test_hop3_single_core(self, sme3dc):
        r = sme3dc.run(n_cores=1, mapping=single_core_at_distance(3))
        assert r.mflops == pytest.approx(21.52, rel=0.02)

    def test_l2_resident_24_cores(self, na5):
        r = na5.run(n_cores=24)
        assert r.mflops == pytest.approx(951.0, rel=0.02)

    def test_conf1_over_conf0_ratio(self, na5):
        r0 = na5.run(n_cores=24, config=CONF0)
        r1 = na5.run(n_cores=24, config=CONF1)
        assert r0.makespan / r1.makespan == pytest.approx(1.50, rel=0.01)

    def test_determinism_bit_exact(self, sme3dc):
        a = sme3dc.run(n_cores=16)
        b = SpMVExperiment(build_matrix(7, scale=SCALE), name="sme3Dc").run(n_cores=16)
        assert a.makespan == b.makespan  # not approx: bit-identical


class TestGoldenCampaign:
    """The checked-in campaign file is reproducible byte-for-byte.

    ``tests/fixtures/golden_campaign.jsonl`` was produced by the exact
    run below; both the serial and the ``workers=4`` executor must
    regenerate it bitwise — this is the determinism guarantee that lets
    parallel sweeps share resume files with serial ones.  Records hold
    no wall-clock or host-dependent fields, so byte equality is fair.
    """

    GOLDEN = FIXTURES / "golden_campaign.jsonl"

    def _run(self, tmp_path, workers, machine="scc-48"):
        campaign = Campaign(
            "golden_campaign", tmp_path, scale=0.05, iterations=2, mode="model",
            machine=machine,
        )
        points = Campaign.grid(
            ids=(24, 30), core_counts=(1, 4), configs=("conf0", "conf1")
        )
        ran, skipped = campaign.run(points, workers=workers)
        assert (ran, skipped) == (len(points), 0)
        return campaign.path.read_bytes()

    def test_serial_reproduces_fixture_bitwise(self, tmp_path):
        assert self._run(tmp_path, workers=1) == self.GOLDEN.read_bytes()

    def test_workers4_reproduces_fixture_bitwise(self, tmp_path):
        assert self._run(tmp_path, workers=4) == self.GOLDEN.read_bytes()

    @pytest.mark.parametrize("workers", [1, 4])
    def test_explicit_default_machine_is_driftfree(self, tmp_path, workers):
        """Pinning machine='scc-48' (the pre-zoo implicit machine) must
        reproduce the pre-zoo fixture bytes: the MachineModel indirection
        introduced no behavioral drift."""
        assert self._run(tmp_path, workers, machine="scc-48") == self.GOLDEN.read_bytes()

    def test_supervised_run_reproduces_fixture_bitwise(self, tmp_path):
        """Supervision must be invisible in the output: the self-healing
        executor's records are the same bytes as the bare pool's."""
        from repro.core import SupervisePolicy

        campaign = Campaign(
            "golden_campaign", tmp_path, scale=0.05, iterations=2, mode="model"
        )
        points = Campaign.grid(
            ids=(24, 30), core_counts=(1, 4), configs=("conf0", "conf1")
        )
        policy = SupervisePolicy(task_timeout=60.0, max_retries=2)
        assert campaign.run(points, workers=4, policy=policy) == (len(points), 0)
        assert campaign.path.read_bytes() == self.GOLDEN.read_bytes()


class TestGoldenSuiteStats:
    def test_suite_fingerprint(self):
        """The deterministic generators must keep producing the same
        matrices: pin (nnz, first column indices) of three entries."""
        a = build_matrix(7, scale=SCALE)   # sme3Dc stand-in
        b = build_matrix(24, scale=SCALE)  # rajat09 stand-in
        c = build_matrix(30, scale=SCALE)  # Na5 stand-in
        assert a.nnz == 705607
        assert b.nnz == 24430
        assert c.nnz == 66992
        assert a.index[:5].tolist() == [0, 6, 7, 14, 15]
