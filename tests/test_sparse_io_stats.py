"""Tests for MatrixMarket I/O and matrix statistics."""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.sparse import (
    profile_matrix,
    read_matrix_market,
    working_set_bytes,
    working_set_mbytes,
    working_set_per_core,
    write_matrix_market,
)


class TestWorkingSet:
    def test_paper_formula(self):
        """ws = 4*((n+1) + nnz) + 8*(nnz + 2n) — Sec. III."""
        n, nnz = 1000, 9000
        assert working_set_bytes(n, nnz) == 4 * ((n + 1) + nnz) + 8 * (nnz + 2 * n)

    def test_mbytes(self):
        assert working_set_mbytes(0, 0) == pytest.approx(4 / 2**20)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            working_set_bytes(-1, 0)

    def test_per_core_divides_evenly(self, small_banded):
        full = working_set_bytes(small_banded.n_rows, small_banded.nnz)
        assert working_set_per_core(small_banded, 8) == pytest.approx(full / 8)
        with pytest.raises(ValueError):
            working_set_per_core(small_banded, 0)


class TestProfile:
    def test_table1_columns(self, small_banded):
        p = profile_matrix(small_banded)
        assert p.n == small_banded.n_rows
        assert p.nnz == small_banded.nnz
        assert p.nnz_per_row == pytest.approx(small_banded.nnz_per_row)
        n, nnz, npr, ws = p.row()
        assert (n, nnz) == (p.n, p.nnz)

    def test_row_length_stats(self, tiny_csr):
        p = profile_matrix(tiny_csr)
        assert p.row_len_min == 1
        assert p.row_len_max == 3

    def test_col_distance_banded_vs_random(self, small_banded, small_random):
        assert profile_matrix(small_banded).mean_col_distance < profile_matrix(
            small_random
        ).mean_col_distance


class TestMatrixMarketIO:
    def test_round_trip(self, tiny_csr):
        buf = io.StringIO()
        write_matrix_market(tiny_csr, buf)
        buf.seek(0)
        back = read_matrix_market(buf)
        assert back.allclose(tiny_csr)

    def test_round_trip_file(self, tmp_path, small_banded):
        path = tmp_path / "m.mtx"
        write_matrix_market(small_banded, path)
        back = read_matrix_market(path)
        assert back.allclose(small_banded)

    def test_symmetric_expansion(self):
        text = """%%MatrixMarket matrix coordinate real symmetric
3 3 4
1 1 2.0
2 1 5.0
3 3 1.0
3 2 7.0
"""
        m = read_matrix_market(io.StringIO(text))
        d = m.to_dense()
        np.testing.assert_allclose(d, d.T)
        assert d[1, 0] == 5.0 and d[0, 1] == 5.0  # mirrored off-diagonal
        assert d[0, 0] == 2.0 and d[2, 1] == 7.0 and d[1, 2] == 7.0
        assert m.nnz == 6  # diagonal entries not duplicated

    def test_pattern_field(self):
        text = """%%MatrixMarket matrix coordinate pattern general
2 2 2
1 1
2 2
"""
        m = read_matrix_market(io.StringIO(text))
        np.testing.assert_allclose(m.to_dense(), np.eye(2))

    def test_comments_skipped(self):
        text = """%%MatrixMarket matrix coordinate real general
% a comment
% another
2 2 1
1 2 3.5
"""
        m = read_matrix_market(io.StringIO(text))
        assert m.to_dense()[0, 1] == 3.5

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            read_matrix_market(io.StringIO("garbage\n1 1 0\n"))

    def test_unsupported_format_rejected(self):
        with pytest.raises(ValueError):
            read_matrix_market(io.StringIO("%%MatrixMarket matrix array real general\n"))
        with pytest.raises(ValueError):
            read_matrix_market(
                io.StringIO("%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n")
            )

    def test_entry_count_checked(self):
        text = """%%MatrixMarket matrix coordinate real general
2 2 3
1 1 1.0
"""
        with pytest.raises(ValueError):
            read_matrix_market(io.StringIO(text))

    def test_nonsquare(self):
        text = """%%MatrixMarket matrix coordinate real general
2 4 2
1 4 1.0
2 1 2.0
"""
        m = read_matrix_market(io.StringIO(text))
        assert m.shape == (2, 4)
