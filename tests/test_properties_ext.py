"""Property-based tests for the extension modules (BCSR, reordering,
trace generation) and the fem_blocks generator."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.scc.tracegen import spmv_address_trace
from repro.sparse import (
    fem_blocks,
    permute_symmetric,
    random_uniform,
    reverse_cuthill_mckee,
)
from repro.sparse.bcsr import BCSRMatrix

SET = settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestFemBlocksGenerator:
    @pytest.mark.parametrize("block", [2, 3, 4, 6])
    def test_blocks_are_dense(self, block):
        a = fem_blocks(20 * block, block, 4.0 * block, seed=1)
        dense = (a.to_dense() != 0).astype(int)
        n_brows = a.n_rows // block
        for bi in range(n_brows):
            tile_rows = dense[bi * block : (bi + 1) * block]
            for bj in range(n_brows):
                tile = tile_rows[:, bj * block : (bj + 1) * block]
                total = tile.sum()
                assert total in (0, block * block), "tiles must be empty or full"

    def test_diagonal_blocks_present(self):
        a = fem_blocks(60, 3, 9.0, seed=2)
        dense = a.to_dense()
        assert (np.diag(dense) != 0).all()

    def test_density_near_target(self):
        a = fem_blocks(3000, 4, 40.0, seed=3)
        assert a.nnz_per_row == pytest.approx(40.0, rel=0.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            fem_blocks(0, 4, 10.0)
        with pytest.raises(ValueError):
            fem_blocks(100, 0, 10.0)
        with pytest.raises(ValueError):
            fem_blocks(100, 4, 0.0)

    def test_deterministic(self):
        assert fem_blocks(200, 4, 12.0, seed=9).allclose(fem_blocks(200, 4, 12.0, seed=9))


class TestBCSRProperties:
    @SET
    @given(
        st.integers(10, 80),
        st.floats(1.0, 8.0),
        st.sampled_from([(1, 1), (2, 2), (2, 3), (4, 4)]),
        st.integers(0, 100),
    )
    def test_roundtrip_and_product(self, n, npr, shape, seed):
        a = random_uniform(n, npr, seed=seed)
        b = BCSRMatrix.from_csr(a, *shape)
        assert b.to_csr().allclose(a)
        x = np.linspace(0.1, 1.0, n)
        np.testing.assert_allclose(b.spmv(x), a.to_scipy() @ x, rtol=1e-9, atol=1e-12)

    @SET
    @given(st.integers(10, 60), st.integers(0, 50))
    def test_fill_ratio_at_least_one(self, n, seed):
        a = random_uniform(n, 3.0, seed=seed)
        b = BCSRMatrix.from_csr(a, 2, 2)
        assert b.fill_ratio() >= 1.0

    @SET
    @given(st.integers(10, 60), st.integers(0, 50))
    def test_block_count_bounded_by_nnz(self, n, seed):
        a = random_uniform(n, 3.0, seed=seed)
        b = BCSRMatrix.from_csr(a, 2, 2)
        assert b.n_blocks <= a.nnz


class TestReorderProperties:
    @SET
    @given(st.integers(10, 80), st.integers(0, 100))
    def test_rcm_is_permutation(self, n, seed):
        a = random_uniform(n, 4.0, seed=seed)
        p = reverse_cuthill_mckee(a)
        assert sorted(p.tolist()) == list(range(n))

    @SET
    @given(st.integers(10, 60), st.integers(0, 60))
    def test_double_permutation_roundtrip(self, n, seed):
        """Permuting by p then by the inverse restores the matrix."""
        a = random_uniform(n, 4.0, seed=seed)
        rng = np.random.default_rng(seed)
        p = rng.permutation(n)
        b = permute_symmetric(a, p)
        inv = np.empty(n, dtype=np.int64)
        inv[np.arange(n)] = p  # applying p's inverse = mapping back
        restored = permute_symmetric(b, np.argsort(p))
        # permute by argsort(p) reverses permute by p.
        assert restored.allclose(a)

    @SET
    @given(st.integers(10, 60), st.integers(0, 60))
    def test_spmv_commutes_with_permutation(self, n, seed):
        """(P A P^T)(P x) == P (A x) — reordering preserves numerics."""
        from repro.sparse import spmv

        a = random_uniform(n, 4.0, seed=seed)
        rng = np.random.default_rng(seed + 1)
        p = rng.permutation(n)
        inv = np.argsort(p)
        b = permute_symmetric(a, p)
        x = rng.uniform(size=n)
        lhs = spmv(b, x[p])      # permuted operator on permuted input
        rhs = spmv(a, x)[p]      # permute the original result
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-12)


class TestTraceProperties:
    @SET
    @given(st.integers(5, 60), st.floats(1.0, 6.0), st.integers(0, 80))
    def test_trace_length_formula(self, n, npr, seed):
        a = random_uniform(n, npr, seed=seed)
        addrs, writes = spmv_address_trace(a)
        assert addrs.size == 3 * a.n_rows + 3 * a.nnz
        assert writes.sum() == a.n_rows

    @SET
    @given(st.integers(5, 40), st.integers(0, 40))
    def test_trace_splits_concatenate(self, n, seed):
        """Row-range traces concatenate to the full trace."""
        a = random_uniform(n, 3.0, seed=seed)
        full, _ = spmv_address_trace(a)
        mid = n // 2
        first, _ = spmv_address_trace(a, 0, mid)
        second, _ = spmv_address_trace(a, mid, n)
        np.testing.assert_array_equal(np.concatenate([first, second]), full)
