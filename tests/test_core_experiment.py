"""Tests for the SpMVExperiment runner."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SpMVExperiment, single_core_at_distance
from repro.rcce.errors import RCCEBudgetExceededError
from repro.scc import CONF0, CONF1
from repro.sparse import banded, random_uniform


@pytest.fixture(scope="module")
def exp():
    a = banded(2000, 12.0, 20, seed=21)
    return SpMVExperiment(a, name="bench")


class TestRunBasics:
    def test_result_fields(self, exp):
        r = exp.run(n_cores=4, iterations=4)
        assert r.matrix_name == "bench"
        assert r.n_cores == 4
        assert r.config_name == "conf0"
        assert r.kernel == "csr"
        assert r.flops == 2 * exp.a.nnz * 4
        assert r.makespan > 0
        assert r.gflops > 0
        assert len(r.per_core) == 4
        assert r.power_watts == pytest.approx(CONF0.full_chip_power())

    def test_unknown_kernel_rejected(self, exp):
        with pytest.raises(ValueError):
            exp.run(n_cores=2, kernel="magic")

    def test_explicit_mapping_length_checked(self, exp):
        with pytest.raises(ValueError):
            exp.run(n_cores=4, mapping=[0, 1])

    def test_explicit_mapping_used(self, exp):
        r = exp.run(n_cores=1, mapping=single_core_at_distance(2))
        assert r.mapping == "explicit"
        assert r.per_core[0].core in (4, 5, 16, 17, 6, 7, 14, 15, 28, 29, 40, 41, 30, 31, 38, 39)

    def test_traces_cached_per_core_count(self, exp):
        t1 = exp.traces(4)
        t2 = exp.traces(4)
        assert t1 is t2

    def test_metrics_consistency(self, exp):
        r = exp.run(n_cores=8, iterations=2)
        assert r.mflops == pytest.approx(r.gflops * 1000)
        assert r.mflops_per_watt == pytest.approx(r.mflops / r.power_watts)


class TestBudget:
    def test_plain_run_accepts_budget(self):
        exp = SpMVExperiment(banded(400, 6.0, 8, seed=3), name="band")
        with pytest.raises(RCCEBudgetExceededError):
            exp.run(n_cores=4, iterations=4, time_budget=1e-9)
        r = exp.run(n_cores=4, iterations=2, time_budget=60.0)
        assert r.makespan < 60.0


class TestPaperShapes:
    def test_hop_distance_degrades_single_core(self, exp):
        perf = [
            exp.run(n_cores=1, mapping=single_core_at_distance(h)).mflops
            for h in range(4)
        ]
        assert perf[0] > perf[1] > perf[2] > perf[3]
        degradation = 1 - perf[3] / perf[0]
        assert 0.05 < degradation < 0.25  # paper: ~12%

    def test_distance_reduction_not_slower(self, exp):
        for n in (4, 8, 16):
            std = exp.run(n_cores=n, mapping="standard")
            dr = exp.run(n_cores=n, mapping="distance_reduction")
            assert dr.makespan <= std.makespan * 1.0001

    def test_mappings_equivalent_at_48(self, exp):
        """With all 48 cores in play both mappings use the same core
        set; only rank placement differs, so makespans are within noise
        (block-boundary and barrier-tree effects)."""
        std = exp.run(n_cores=48, mapping="standard")
        dr = exp.run(n_cores=48, mapping="distance_reduction")
        assert dr.makespan == pytest.approx(std.makespan, rel=0.02)
        assert sorted(t.core for t in dr.per_core) == sorted(
            t.core for t in std.per_core
        )

    def test_throughput_grows_with_cores(self, exp):
        r1 = exp.run(n_cores=1)
        r8 = exp.run(n_cores=8)
        assert r8.gflops > 2 * r1.gflops

    def test_conf1_beats_conf0(self, exp):
        r0 = exp.run(n_cores=8, config=CONF0)
        r1 = exp.run(n_cores=8, config=CONF1)
        assert r1.makespan < r0.makespan
        assert r1.power_watts > r0.power_watts

    def test_l2_disabled_slower(self, exp):
        on = exp.run(n_cores=8)
        off = exp.run(n_cores=8, config=CONF0.with_l2(False))
        assert off.makespan > on.makespan

    def test_no_x_miss_not_slower(self):
        a = random_uniform(2000, 8.0, seed=22)
        e = SpMVExperiment(a, name="scatter")
        base = e.run(n_cores=8)
        nox = e.run(n_cores=8, kernel="no_x_miss")
        assert nox.makespan < base.makespan


class TestVerification:
    def test_verified_result_matches_scipy(self, exp, rng):
        x = rng.uniform(size=exp.a.n_cols)
        r = exp.run(n_cores=6, iterations=1, verify=True, x=x)
        np.testing.assert_allclose(r.y, exp.a.to_scipy() @ x, rtol=1e-9)

    def test_verify_no_x_miss_semantics(self, exp):
        x = np.zeros(exp.a.n_cols)
        x[0] = 2.0
        r = exp.run(n_cores=4, iterations=1, verify=True, x=x, kernel="no_x_miss")
        rowsums = np.asarray(exp.a.to_scipy().sum(axis=1)).ravel()
        np.testing.assert_allclose(r.y, 2.0 * rowsums, rtol=1e-9)

    def test_no_verify_returns_none(self, exp):
        assert exp.run(n_cores=2).y is None


class TestSweep:
    def test_sweep_cores(self, exp):
        results = exp.sweep_cores([1, 2, 4])
        assert [r.n_cores for r in results] == [1, 2, 4]
