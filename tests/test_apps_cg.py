"""Tests for the distributed CG application."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import make_spd, parallel_cg
from repro.scc import CONF0, CONF1
from repro.sparse import CSRMatrix, banded, random_uniform, stencil_2d


@pytest.fixture(scope="module")
def system():
    a = make_spd(banded(500, 6.0, 8, seed=3))
    rng = np.random.default_rng(1)
    x_true = rng.uniform(size=a.n_rows)
    b = a.to_scipy() @ x_true
    return a, b, x_true


class TestMakeSPD:
    def test_symmetric(self):
        m = make_spd(random_uniform(80, 4.0, seed=5))
        d = m.to_dense()
        np.testing.assert_allclose(d, d.T)

    def test_positive_definite(self):
        m = make_spd(random_uniform(60, 4.0, seed=6))
        eigs = np.linalg.eigvalsh(m.to_dense())
        assert eigs.min() > 0

    def test_diagonally_dominant(self):
        m = make_spd(random_uniform(60, 4.0, seed=7))
        d = m.to_dense()
        off = np.abs(d).sum(axis=1) - np.abs(np.diag(d))
        assert (np.diag(d) >= off).all()

    def test_non_square_rejected(self):
        m = CSRMatrix(np.array([0, 1]), np.array([1], np.int32), np.array([1.0]), n_cols=3)
        with pytest.raises(ValueError):
            make_spd(m)

    def test_bad_shift_rejected(self):
        with pytest.raises(ValueError):
            make_spd(random_uniform(10, 2.0, seed=1), shift=0.0)


class TestParallelCG:
    def test_solves_banded_system(self, system):
        a, b, x_true = system
        res = parallel_cg(a, b, n_ues=8, tol=1e-10)
        assert res.converged
        np.testing.assert_allclose(res.x, x_true, atol=1e-6)

    def test_residual_definition(self, system):
        a, b, _ = system
        res = parallel_cg(a, b, n_ues=4, tol=1e-10)
        true_res = np.linalg.norm(b - a.to_scipy() @ res.x)
        assert true_res == pytest.approx(res.residual_norm, rel=0.1, abs=1e-9)

    @pytest.mark.parametrize("n_ues", [1, 2, 5, 8, 16])
    def test_ue_count_does_not_change_answer(self, system, n_ues):
        a, b, x_true = system
        res = parallel_cg(a, b, n_ues=n_ues, tol=1e-10)
        np.testing.assert_allclose(res.x, x_true, atol=1e-6)

    def test_stencil_system(self):
        a = make_spd(stencil_2d(16, 16, seed=9))
        x_true = np.ones(a.n_rows)
        b = a.to_scipy() @ x_true
        res = parallel_cg(a, b, n_ues=8, tol=1e-10)
        assert res.converged
        np.testing.assert_allclose(res.x, x_true, atol=1e-6)

    def test_zero_rhs(self, system):
        a, _, _ = system
        res = parallel_cg(a, np.zeros(a.n_rows), n_ues=4)
        assert res.converged
        assert res.iterations == 0
        np.testing.assert_allclose(res.x, 0.0)

    def test_max_iter_cap_reports_nonconvergence(self, system):
        a, b, _ = system
        res = parallel_cg(a, b, n_ues=4, tol=1e-14, max_iter=2)
        assert not res.converged
        assert res.iterations == 2

    def test_simulated_time_positive_and_grows_with_iters(self, system):
        a, b, _ = system
        quick = parallel_cg(a, b, n_ues=8, tol=1e-2)
        precise = parallel_cg(a, b, n_ues=8, tol=1e-12)
        assert precise.iterations > quick.iterations
        assert precise.makespan > quick.makespan > 0

    def test_faster_config_is_faster(self, system):
        a, b, _ = system
        slow = parallel_cg(a, b, n_ues=8, tol=1e-8, config=CONF0)
        fast = parallel_cg(a, b, n_ues=8, tol=1e-8, config=CONF1)
        assert fast.iterations == slow.iterations
        assert fast.makespan < slow.makespan

    def test_explicit_core_map(self, system):
        a, b, x_true = system
        res = parallel_cg(a, b, n_ues=4, core_map=[40, 41, 46, 47], tol=1e-10)
        np.testing.assert_allclose(res.x, x_true, atol=1e-6)

    def test_validation(self, system):
        a, b, _ = system
        with pytest.raises(ValueError):
            parallel_cg(a, b[:-1])
        with pytest.raises(ValueError):
            parallel_cg(a, b, n_ues=0)
        with pytest.raises(ValueError):
            parallel_cg(a, b, tol=0.0)
        with pytest.raises(ValueError):
            parallel_cg(a, b, max_iter=0)
