"""Tests for the ELL/HYB format."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sparse import banded, random_uniform, with_dense_rows
from repro.sparse.ell import ELLMatrix, ell_efficiency


@pytest.fixture(scope="module")
def even():
    return banded(300, 6.0, 8, seed=51)


@pytest.fixture(scope="module")
def skewed():
    base = random_uniform(300, 3.0, seed=52)
    return with_dense_rows(base, 4, 0.6, seed=53)


class TestConstruction:
    def test_pure_ell_roundtrip(self, even):
        e = ELLMatrix.from_csr(even)
        assert not e.is_hybrid
        assert e.to_csr().allclose(even)
        assert e.nnz == even.nnz

    def test_hybrid_roundtrip(self, skewed):
        e = ELLMatrix.from_csr(skewed, k=4)
        assert e.is_hybrid
        assert e.to_csr().allclose(skewed)
        assert e.nnz == skewed.nnz

    def test_k_zero_all_tail(self, skewed):
        e = ELLMatrix.from_csr(skewed, k=0)
        assert e.tail.nnz == skewed.nnz
        assert e.to_csr().allclose(skewed)

    def test_negative_k_rejected(self, even):
        with pytest.raises(ValueError):
            ELLMatrix.from_csr(even, k=-1)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ELLMatrix(2, 2, 3, np.zeros((2, 2), np.int32), np.zeros((2, 3)), None)

    def test_padding_accounting(self, even):
        e = ELLMatrix.from_csr(even)
        assert e.padded_slots == e.n_rows * e.k - even.nnz


class TestSpMV:
    def test_matches_csr_pure_ell(self, even, rng):
        e = ELLMatrix.from_csr(even)
        x = rng.uniform(size=even.n_cols)
        np.testing.assert_allclose(e.spmv(x), even.to_scipy() @ x, rtol=1e-10)

    def test_matches_csr_hybrid(self, skewed, rng):
        e = ELLMatrix.from_csr(skewed, k=3)
        x = rng.uniform(size=skewed.n_cols)
        np.testing.assert_allclose(e.spmv(x), skewed.to_scipy() @ x, rtol=1e-10)

    def test_padding_is_numerically_inert(self, even):
        """x values at padded slots' sentinel column must not leak in."""
        e = ELLMatrix.from_csr(even)
        x = np.zeros(even.n_cols)
        x[0] = 1e30  # PAD maps to column 0 internally; mask must kill it
        y_csr = even.to_scipy() @ x
        np.testing.assert_allclose(e.spmv(x), y_csr, rtol=1e-10)

    def test_bad_x_shape(self, even):
        e = ELLMatrix.from_csr(even)
        with pytest.raises(ValueError):
            e.spmv(np.ones(even.n_cols + 1))


class TestEfficiency:
    def test_uniform_rows_efficient(self, even):
        util, spilled = ell_efficiency(even)
        assert util > 0.6
        assert spilled == 0

    def test_skewed_rows_wasteful(self, skewed):
        util, spilled = ell_efficiency(skewed)
        assert util < 0.1  # the dense rows blow up k for everyone
        assert spilled == 0

    def test_hyb_split_recovers_utilization(self, skewed):
        util_pure, _ = ell_efficiency(skewed)
        util_hyb, spilled = ell_efficiency(skewed, k=3)
        assert util_hyb > 5 * util_pure
        assert spilled > 0

    def test_negative_k(self, even):
        with pytest.raises(ValueError):
            ell_efficiency(even, k=-2)

    def test_matches_matrix_accounting(self, skewed):
        k = 5
        util, spilled = ell_efficiency(skewed, k=k)
        e = ELLMatrix.from_csr(skewed, k=k)
        assert spilled == (e.tail.nnz if e.tail else 0)
        stored = e.nnz - spilled
        assert util == pytest.approx(stored / (e.n_rows * k))
