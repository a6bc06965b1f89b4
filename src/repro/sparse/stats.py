"""Matrix statistics used throughout the evaluation.

The central quantity is the paper's working-set formula (Sec. III)::

    ws = 4 * ((n + 1) + nnz) + 8 * (nnz + 2 * n)   [bytes]

i.e. 32-bit ``ptr`` and ``index``, double-precision ``da``, ``x`` and
``y``.  The per-core working set of a row partition splits the ptr/
index/da/y terms by part and charges each part only the slice of ``x``
its column range can touch is *not* done — the paper divides the whole
working set by the core count, and we follow it exactly
(:func:`working_set_per_core`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .csr import CSRMatrix
from .partition import RowPartition

__all__ = [
    "working_set_bytes",
    "working_set_mbytes",
    "working_set_per_core",
    "MatrixProfile",
    "profile_matrix",
    "ROW_LENGTH_EDGES",
    "mean_std",
    "row_extents",
    "row_length_histogram",
    "bandwidth_stats",
    "block_density",
    "reuse_proxies",
    "partition_imbalance",
    "partition_spans",
]


def working_set_bytes(n: int, nnz: int) -> int:
    """Paper Sec. III: bytes touched by one SpMV on an n-row matrix."""
    if n < 0 or nnz < 0:
        raise ValueError("n and nnz must be non-negative")
    return 4 * ((n + 1) + nnz) + 8 * (nnz + 2 * n)


def working_set_mbytes(n: int, nnz: int) -> float:
    """The working-set formula in MiB."""
    return working_set_bytes(n, nnz) / 2**20


def working_set_per_core(a: CSRMatrix, n_cores: int) -> float:
    """Working set divided evenly by core count (bytes), as in Fig. 6."""
    if n_cores < 1:
        raise ValueError(f"n_cores must be >= 1, got {n_cores}")
    return working_set_bytes(a.n_rows, a.nnz) / n_cores


@dataclass(frozen=True)
class MatrixProfile:
    """Summary statistics of one matrix (Table I row + locality extras)."""

    n: int
    nnz: int
    nnz_per_row: float
    ws_mbytes: float
    row_len_min: int
    row_len_max: int
    row_len_std: float
    mean_col_distance: float  # mean |col - row|: dispersion from diagonal

    def row(self) -> tuple:
        """(n, nnz, nnz/n, ws MB) — the four Table I columns."""
        return (self.n, self.nnz, self.nnz_per_row, self.ws_mbytes)


def profile_matrix(a: CSRMatrix) -> MatrixProfile:
    """Compute the full MatrixProfile of a matrix."""
    lengths = a.row_lengths()
    rows_of_nnz = np.repeat(np.arange(a.n_rows, dtype=np.int64), lengths)
    col_dist = float(np.abs(a.index.astype(np.int64) - rows_of_nnz).mean()) if a.nnz else 0.0
    return MatrixProfile(
        n=a.n_rows,
        nnz=a.nnz,
        nnz_per_row=a.nnz_per_row,
        ws_mbytes=working_set_mbytes(a.n_rows, a.nnz),
        row_len_min=int(lengths.min()) if a.n_rows else 0,
        row_len_max=int(lengths.max()) if a.n_rows else 0,
        row_len_std=float(lengths.std()) if a.n_rows else 0.0,
        mean_col_distance=col_dist,
    )


# -- vectorized feature kernels (the mode="predict" extractor) ------------
#
# Everything below is a pure-NumPy single pass over ``ptr``/``index`` —
# no Python per-row loops — so the whole matrix-level feature extraction
# costs a small multiple of one ``np.diff`` even at full Table-I scale.
# The kernels are deliberately *structural*: they see only the sparsity
# pattern, never ``da``, because the performance model itself is
# value-blind.

#: row-length histogram bucket upper bounds (inclusive); the last
#: bucket is open-ended.  Chosen to resolve the suite's spread: empty
#: rows, near-diagonal rows, and the power-law heavy tail.
ROW_LENGTH_EDGES: Tuple[int, ...] = (0, 2, 8, 32, 128)


def mean_std(v: np.ndarray) -> Tuple[np.float64, np.float64]:
    """``(v.mean(), v.std())`` of a nonempty float vector, bit for bit.

    The same pairwise sums and divisions as NumPy's ``mean``/``std``,
    without their generic reduction wrappers — which cost several times
    the arithmetic on the short per-core vectors of the feature path.
    """
    mean = v.sum() / v.size
    dev = v - mean
    dev *= dev
    return mean, np.sqrt(dev.sum() / v.size)


def _segment_reduce(
    values: np.ndarray, starts: np.ndarray, ends: np.ndarray, op, fill: float
) -> np.ndarray:
    """Per-segment ``op.reduceat`` that tolerates empty segments.

    ``np.ufunc.reduceat`` mishandles zero-length segments (it returns
    the element *at* the index, and an index equal to ``values.size``
    is outright invalid), so the reduction runs over the *nonempty*
    segments only — the segments are contiguous (``ends[k] ==
    starts[k+1]``), so the next nonempty start is exactly this
    segment's end — and empty segments get ``fill``.
    """
    out = np.full(starts.size, fill, dtype=float)
    nonempty = starts < ends
    if values.size and nonempty.any():
        out[nonempty] = op.reduceat(values, starts[nonempty])
    return out


def row_extents(a: CSRMatrix) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row ``(min_col, max_col, length)`` in one vectorized pass.

    Empty rows get ``min_col = +inf`` and ``max_col = -inf`` so that
    downstream segment minima/maxima ignore them naturally.
    """
    lengths = a.row_lengths()
    starts, ends = a.ptr[:-1], a.ptr[1:]
    row_min = _segment_reduce(a.index, starts, ends, np.minimum, np.inf)
    row_max = _segment_reduce(a.index, starts, ends, np.maximum, -np.inf)
    return row_min, row_max, lengths


def row_length_histogram(a: CSRMatrix, edges: Tuple[int, ...] = ROW_LENGTH_EDGES) -> np.ndarray:
    """Fractions of rows whose nnz falls in each bucket (one extra
    open-ended bucket at the end).  Invariant under any row or column
    permutation — it sees only the multiset of row lengths."""
    lengths = a.row_lengths()
    if a.n_rows == 0:
        return np.zeros(len(edges) + 1)
    idx = np.searchsorted(np.asarray(edges, dtype=np.int64), lengths, side="left")
    counts = np.bincount(idx, minlength=len(edges) + 1)
    return counts / a.n_rows


def bandwidth_stats(
    a: CSRMatrix,
    extents: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
) -> Dict[str, float]:
    """Diagonal-dispersion features (all normalized by ``n_cols``).

    ``mean_dist``/``max_dist`` are over per-nonzero ``|col - row|``;
    ``band_mean`` is the mean per-row column span ``(max - min + 1)``
    over nonempty rows and ``profile_frac`` the summed spans over
    ``n * n`` (the classic matrix profile).  These *do* change under
    row/column reorderings — that is their job.  Pass precomputed
    ``extents`` (from :func:`row_extents`) to skip recomputing them.
    """
    n = max(a.n_cols, 1)
    if a.nnz == 0:
        return {"mean_dist": 0.0, "max_dist": 0.0, "band_mean": 0.0, "profile_frac": 0.0}
    # |col - row| per nonzero, computed in place in the row-id buffer.
    dist = np.repeat(np.arange(a.n_rows, dtype=np.int64), a.row_lengths())
    np.subtract(a.index, dist, out=dist)
    np.abs(dist, out=dist)
    row_min, row_max, lengths = extents if extents is not None else row_extents(a)
    nonempty = lengths > 0
    spans = (row_max[nonempty] - row_min[nonempty] + 1.0) if nonempty.any() else np.zeros(1)
    return {
        # An int64 sum then one division: the float mean's value while
        # the total stays below 2**53 (nnz * n_cols), at a third the cost.
        "mean_dist": float(dist.sum()) / a.nnz / n,
        "max_dist": float(dist.max()) / n,
        "band_mean": float(spans.mean()) / n,
        "profile_frac": float(spans.sum()) / (n * max(a.n_rows, 1)),
    }


def block_density(a: CSRMatrix, blocks: int = 16) -> Dict[str, float]:
    """Coarse ``blocks x blocks`` occupancy of the sparsity pattern.

    ``fill`` is the fraction of nonempty blocks; ``cv`` the coefficient
    of variation of nonzeros over the *row* block stripes (a row-block
    density/imbalance proxy that survives any column reordering).

    Rows are sorted, so one row block is one contiguous ``index``
    slice: each nonzero sets the bit of its column block, and one OR
    reduction per stripe yields the stripe's set of nonempty blocks —
    no per-nonzero row-id expansion or histogram on the feature
    extraction hot path.  ``blocks`` is at most 64, one bit each.
    """
    b = max(1, blocks)
    if b > 64:
        raise ValueError(f"blocks must be at most 64, got {blocks}")
    if a.nnz == 0 or a.n_rows == 0 or a.n_cols == 0:
        return {"fill": 0.0, "cv": 0.0}
    # stripe r covers rows [edges[r], edges[r+1]) with edges[r] =
    # ceil(r * n_rows / b), i.e. exactly the rows whose block index
    # ``row * b // n_rows`` equals r; stripe nnz is a ptr diff.
    edges = -((np.arange(b + 1, dtype=np.int64) * a.n_rows) // -b)
    stripe_ptr = a.ptr[edges]
    stripe = np.diff(stripe_ptr).astype(float)
    col_block = a.index * b
    col_block //= a.n_cols
    np.minimum(col_block, b - 1, out=col_block)
    one = np.int32(1) if b < 32 else np.int64(1)
    bits = np.left_shift(one, col_block)
    # Empty stripes are skipped: the next nonempty stripe starts where
    # they end, so each reduceat segment is exactly one stripe.
    masks = np.bitwise_or.reduceat(bits, stripe_ptr[:-1][stripe > 0])
    filled = sum(bin(m).count("1") for m in masks.view(f"u{masks.itemsize}").tolist())
    mean = stripe.mean()
    return {
        "fill": filled / (b * b),
        "cv": float(stripe.std() / mean) if mean > 0 else 0.0,
    }


def reuse_proxies(a: CSRMatrix, line_elems: int = 8) -> Dict[str, float]:
    """Reuse-distance proxies of the ``x``-gather stream.

    ``col_reuse`` is nnz over distinct columns touched (temporal reuse
    of ``x`` entries); ``line_reuse`` nnz over distinct ``x`` cache
    lines (``line_elems`` doubles per line — spatial reuse); and
    ``adj_gap`` the mean within-row gap between consecutive column
    indices, normalized by ``line_elems`` (stride-irregularity of the
    gather: ~1/8 for a dense band, large for scattered rows).
    """
    if a.nnz == 0:
        return {"col_reuse": 1.0, "line_reuse": 1.0, "adj_gap": 0.0}
    cols = a.index
    # bincount-based distinct counts: O(nnz + n_cols), an order of
    # magnitude cheaper than sort-based ``np.unique`` on the feature
    # extraction hot path (column ids are bounded by n_cols).
    touched = np.bincount(cols, minlength=a.n_cols) > 0
    uniq_cols = int(np.count_nonzero(touched))
    le = max(line_elems, 1)
    uniq_lines = int(
        np.count_nonzero(np.bitwise_or.reduceat(touched, np.arange(0, touched.size, le)))
    ) if touched.size else 0
    # within-row gap mean without materializing a masked copy: total
    # |gap| minus the (few, one per row boundary) cross-row gaps.
    if a.nnz > 1:
        # Column ids are below n_cols, so their differences fit the
        # index dtype; the sums below accumulate in int64 regardless.
        gaps = np.diff(cols)
        np.abs(gaps, out=gaps)
        bidx = a.ptr[1:-1].astype(np.int64) - 1
        bidx = bidx[(bidx >= 0) & (bidx < gaps.size)]
        if bidx.size > 1:
            # empty rows repeat a boundary index (ptr is sorted, so
            # dedup is a neighbour test); each gap crosses once.
            keep = np.empty(bidx.size, dtype=bool)
            keep[0] = True
            np.not_equal(bidx[1:], bidx[:-1], out=keep[1:])
            bidx = bidx[keep]
        n_within = gaps.size - bidx.size
        mean_gap = (
            float(gaps.sum() - gaps[bidx].sum()) / n_within if n_within > 0 else 0.0
        )
    else:
        mean_gap = 0.0
    return {
        "col_reuse": a.nnz / max(uniq_cols, 1),
        "line_reuse": a.nnz / max(uniq_lines, 1),
        "adj_gap": mean_gap / max(line_elems, 1),
    }


def partition_imbalance(a: CSRMatrix, partition: RowPartition) -> Dict[str, float]:
    """Per-part nonzero/row imbalance of a row partition.

    ``nnz_cv``/``nnz_max_frac`` quantify how uneven the per-core work
    is (``max_frac`` is max over mean — 1.0 means perfectly balanced);
    the row-count variants capture uneven *row* loads, which drive the
    per-core loop overhead even when nnz balances.
    """
    part_nnz = partition.part_nnz(a).astype(float)
    bounds = np.asarray(partition.bounds, dtype=np.int64)
    part_rows = np.diff(bounds).astype(float)

    def _cv_max(v: np.ndarray) -> Tuple[float, float]:
        if not v.size:
            return 0.0, 1.0
        mean, std = mean_std(v)
        if mean <= 0:
            return 0.0, 1.0
        return float(std / mean), float(v.max() / mean)

    nnz_cv, nnz_max = _cv_max(part_nnz)
    rows_cv, rows_max = _cv_max(part_rows)
    return {
        "nnz_cv": nnz_cv,
        "nnz_max_frac": nnz_max,
        "rows_cv": rows_cv,
        "rows_max_frac": rows_max,
    }


def partition_spans(
    a: CSRMatrix,
    partition: RowPartition,
    row_min: np.ndarray = None,
    row_max: np.ndarray = None,
) -> np.ndarray:
    """Per-part ``x`` column span (elements) — the gather footprint.

    ``row_min``/``row_max`` from :func:`row_extents` can be passed in to
    amortize the O(nnz) pass across many partitions of one matrix; the
    per-partition cost is then O(n_parts).
    """
    if row_min is None or row_max is None:
        row_min, row_max, _ = row_extents(a)
    bounds = np.asarray(partition.bounds, dtype=np.int64)
    starts, ends = bounds[:-1], bounds[1:]
    pmin = _segment_reduce(row_min, starts, ends, np.minimum, np.inf)
    pmax = _segment_reduce(row_max, starts, ends, np.maximum, -np.inf)
    spans = pmax - pmin + 1.0
    spans[~np.isfinite(spans)] = 0.0
    return np.maximum(spans, 0.0)
