"""Vectorized feature kernels vs naive references + invariance properties.

The ``mode="predict"`` extractor (:mod:`repro.sparse.stats`,
:mod:`repro.sparse.features`) replaces every per-row Python loop with
NumPy passes; these tests pin each kernel to a deliberately naive
pure-Python reference on a spread of shapes (banded, power-law,
uniform, empty-row-heavy, tiny), then check the two properties the
feature catalogue documents: the row-length histogram is invariant
under row/column permutations, while the bandwidth/profile features
*detect* reorderings — that asymmetry is what makes the vector useful.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sparse import CSRMatrix, banded, power_law, random_uniform
from repro.sparse.features import (
    FEATURE_NAMES,
    matrix_features,
    partition_features,
    point_features,
)
from repro.sparse.partition import partition_rows_balanced
from repro.sparse.stats import (
    ROW_LENGTH_EDGES,
    bandwidth_stats,
    block_density,
    mean_std,
    partition_spans,
    reuse_proxies,
    row_extents,
    row_length_histogram,
)


def _matrices():
    rng = np.random.default_rng(0)
    mats = [
        banded(200, 6.0, 9, seed=3),
        power_law(150, 5.0, alpha=1.2, seed=5),
        random_uniform(120, 4.0, seed=8),
    ]
    # empty-row-heavy: rows with no nonzeros stress every boundary case
    # (reduceat fills, boundary-gap dedup, histogram bucket 0).
    dense = np.zeros((60, 60))
    for r in range(0, 60, 3):
        cols = rng.choice(60, size=rng.integers(1, 6), replace=False)
        dense[r, cols] = 1.0
    mats.append(CSRMatrix.from_dense(dense))
    # single nonzero and single row
    mats.append(CSRMatrix.from_dense(np.array([[0.0, 1.0], [0.0, 0.0]])))
    mats.append(CSRMatrix.from_dense(np.array([[1.0, 0.0, 2.0, 3.0]])))
    return mats


@pytest.fixture(scope="module", params=range(6), ids=lambda i: f"mat{i}")
def mat(request) -> CSRMatrix:
    return _matrices()[request.param]


# -- naive references ------------------------------------------------------


def _rows_cols(a: CSRMatrix):
    out = []
    for r in range(a.n_rows):
        out.append([int(c) for c in a.index[a.ptr[r] : a.ptr[r + 1]]])
    return out


def test_row_extents_matches_reference(mat):
    row_min, row_max, lengths = row_extents(mat)
    for r, cols in enumerate(_rows_cols(mat)):
        assert lengths[r] == len(cols)
        if cols:
            assert row_min[r] == min(cols)
            assert row_max[r] == max(cols)
        else:
            assert row_min[r] == np.inf and row_max[r] == -np.inf


def test_row_length_histogram_matches_reference(mat):
    hist = row_length_histogram(mat)
    counts = [0] * (len(ROW_LENGTH_EDGES) + 1)
    for cols in _rows_cols(mat):
        counts[sum(1 for e in ROW_LENGTH_EDGES if e < len(cols))] += 1
    assert np.allclose(hist, np.asarray(counts) / mat.n_rows)
    assert hist.sum() == pytest.approx(1.0)


def test_bandwidth_stats_matches_reference(mat):
    bw = bandwidth_stats(mat)
    n = max(mat.n_cols, 1)
    dists, spans = [], []
    for r, cols in enumerate(_rows_cols(mat)):
        dists.extend(abs(c - r) for c in cols)
        if cols:
            spans.append(max(cols) - min(cols) + 1)
    if not dists:
        assert bw == {
            "mean_dist": 0.0, "max_dist": 0.0, "band_mean": 0.0, "profile_frac": 0.0
        }
        return
    assert bw["mean_dist"] == pytest.approx(np.mean(dists) / n)
    assert bw["max_dist"] == pytest.approx(max(dists) / n)
    assert bw["band_mean"] == pytest.approx(np.mean(spans) / n)
    assert bw["profile_frac"] == pytest.approx(sum(spans) / (n * mat.n_rows))


def test_block_density_matches_reference(mat):
    b = 16
    bd = block_density(mat, blocks=b)
    if mat.nnz == 0:
        assert bd == {"fill": 0.0, "cv": 0.0}
        return
    blocks, stripe = set(), [0.0] * b
    for r, cols in enumerate(_rows_cols(mat)):
        rb = r * b // mat.n_rows
        stripe[rb] += len(cols)
        for c in cols:
            blocks.add((rb, min(c * b // mat.n_cols, b - 1)))
    stripe_arr = np.asarray(stripe)
    assert bd["fill"] == pytest.approx(len(blocks) / (b * b))
    assert bd["cv"] == pytest.approx(stripe_arr.std() / stripe_arr.mean())


@pytest.mark.parametrize("b", [1, 31, 32, 64])
def test_block_density_any_width_matches_reference(mat, b):
    """Every block count up to 64 (one mask bit per column block)."""
    bd = block_density(mat, blocks=b)
    if mat.nnz == 0:
        assert bd == {"fill": 0.0, "cv": 0.0}
        return
    blocks = {
        (r * b // mat.n_rows, min(c * b // mat.n_cols, b - 1))
        for r, cols in enumerate(_rows_cols(mat))
        for c in cols
    }
    assert bd["fill"] == len(blocks) / (b * b)


def test_block_density_rejects_more_than_64_blocks(mat):
    with pytest.raises(ValueError, match="at most 64"):
        block_density(mat, blocks=65)


@pytest.mark.parametrize("n", [1, 2, 7, 48, 61, 64, 129])
def test_mean_std_is_numpys_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for v in (rng.random(n) * 1e6, rng.integers(0, 9, n).astype(float), rng.standard_normal(n)):
        mean, std = mean_std(v)
        assert mean.tobytes() == v.mean().tobytes()
        assert std.tobytes() == v.std().tobytes()


def test_reuse_proxies_matches_reference(mat):
    ru = reuse_proxies(mat, line_elems=8)
    if mat.nnz == 0:
        assert ru == {"col_reuse": 1.0, "line_reuse": 1.0, "adj_gap": 0.0}
        return
    all_cols = [c for cols in _rows_cols(mat) for c in cols]
    gaps = [
        abs(cols[i + 1] - cols[i])
        for cols in _rows_cols(mat)
        for i in range(len(cols) - 1)
    ]
    assert ru["col_reuse"] == pytest.approx(mat.nnz / max(len(set(all_cols)), 1))
    assert ru["line_reuse"] == pytest.approx(
        mat.nnz / max(len({c // 8 for c in all_cols}), 1)
    )
    expect_gap = (np.mean(gaps) / 8.0) if gaps else 0.0
    assert ru["adj_gap"] == pytest.approx(expect_gap)


def test_partition_spans_matches_reference(mat):
    for n_parts in (1, 2, 3, 5):
        if n_parts > mat.n_rows:
            continue
        part = partition_rows_balanced(mat, n_parts)
        spans = partition_spans(mat, part)
        rows = _rows_cols(mat)
        for k, (r0, r1) in enumerate(part.ranges()):
            cols = [c for r in range(r0, r1) for c in rows[r]]
            expect = (max(cols) - min(cols) + 1) if cols else 0.0
            assert spans[k] == pytest.approx(expect)


# -- permutation properties ------------------------------------------------


def _permute(a: CSRMatrix, rng, rows=True, cols=True) -> CSRMatrix:
    dense = a.to_dense()
    if rows:
        dense = dense[rng.permutation(a.n_rows)]
    if cols:
        dense = dense[:, rng.permutation(a.n_cols)]
    return CSRMatrix.from_dense(dense)


def test_row_length_histogram_permutation_invariant():
    rng = np.random.default_rng(17)
    a = power_law(150, 5.0, alpha=1.2, seed=5)
    for _ in range(3):
        b = _permute(a, rng, rows=True, cols=True)
        assert np.allclose(row_length_histogram(a), row_length_histogram(b))


def test_bandwidth_stats_detects_reordering():
    # A narrow band scattered by a random column permutation must show a
    # much larger mean diagonal distance — the feature's whole purpose.
    rng = np.random.default_rng(23)
    a = banded(300, 6.0, 7, seed=3)
    scattered = _permute(a, rng, rows=False, cols=True)
    assert (
        bandwidth_stats(scattered)["mean_dist"]
        > 5 * bandwidth_stats(a)["mean_dist"]
    )


# -- assembled vector ------------------------------------------------------


def test_feature_vector_layout_and_determinism():
    from repro.machine.registry import get_machine

    a = banded(200, 6.0, 9, seed=3)
    machine = get_machine("scc-48")
    config = machine.presets["conf0"]
    mf = matrix_features(a)
    part = partition_rows_balanced(a, 4)
    pf = partition_features(a, part, mf)
    core_map = list(range(4))
    v1 = point_features(mf, pf, machine, config, core_map, "csr", 4)
    v2 = point_features(mf, pf, machine, config, core_map, "csr", 4)
    assert v1.shape == (len(FEATURE_NAMES),)
    assert np.array_equal(v1, v2)
    assert np.all(np.isfinite(v1))


def test_matrix_features_memo_is_identity_keyed():
    a = banded(100, 4.0, 5, seed=1)
    b = banded(100, 4.0, 5, seed=1)
    mf_a = matrix_features(a)
    assert matrix_features(a) is mf_a  # same object: memo hit
    assert matrix_features(b) is not mf_a  # equal content, distinct object
    assert np.array_equal(matrix_features(b).vector, mf_a.vector)
