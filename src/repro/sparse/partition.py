"""Row-wise matrix partitioning for parallel SpMV.

The paper's scheme (Sec. IV): split the matrix row-wise so every unit
of execution receives (as close as possible) the same number of
nonzeros.  :func:`partition_rows_balanced` implements that greedy
prefix split; :func:`partition_rows_uniform` (equal row counts) exists
as a baseline for the load-balance ablation.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .csr import CSRMatrix

__all__ = ["RowPartition", "partition_rows_balanced", "partition_rows_uniform"]


@dataclass(frozen=True)
class RowPartition:
    """Contiguous row ranges, one per unit of execution."""

    n_rows: int
    bounds: Tuple[int, ...]  # len == n_parts + 1, bounds[0] == 0, bounds[-1] == n_rows

    def __post_init__(self) -> None:
        b = self.bounds
        if len(b) < 2 or b[0] != 0 or b[-1] != self.n_rows:
            raise ValueError(f"bounds must span [0, {self.n_rows}], got {b}")
        if any(map(operator.gt, b, b[1:])):
            raise ValueError("bounds must be non-decreasing")

    @property
    def n_parts(self) -> int:
        """Number of UE row ranges."""
        return len(self.bounds) - 1

    def part(self, k: int) -> Tuple[int, int]:
        """(start, stop) row range of part k."""
        if not 0 <= k < self.n_parts:
            raise IndexError(f"part {k} out of range [0, {self.n_parts})")
        return self.bounds[k], self.bounds[k + 1]

    def ranges(self) -> List[Tuple[int, int]]:
        """All (start, stop) ranges in rank order."""
        return [self.part(k) for k in range(self.n_parts)]

    def part_nnz(self, a: CSRMatrix) -> np.ndarray:
        """Nonzeros assigned to each part."""
        b = np.asarray(self.bounds, dtype=np.int64)
        return (a.ptr[b[1:]] - a.ptr[b[:-1]]).astype(np.int64)

    def imbalance(self, a: CSRMatrix) -> float:
        """max(part nnz) / mean(part nnz); 1.0 is perfect balance."""
        nnz = self.part_nnz(a)
        mean = nnz.mean()
        return float(nnz.max() / mean) if mean > 0 else 1.0


def partition_rows_balanced(a: CSRMatrix, n_parts: int) -> RowPartition:
    """Split rows so each part holds ~nnz/n_parts nonzeros (paper's scheme).

    Row boundaries are found by bisecting the ``ptr`` prefix sums at the
    ideal cut points, so the split is deterministic and O(P log N).
    """
    if n_parts < 1:
        raise ValueError(f"n_parts must be >= 1, got {n_parts}")
    if n_parts > max(a.n_rows, 1):
        raise ValueError(f"cannot split {a.n_rows} rows into {n_parts} parts")
    targets = (np.arange(1, n_parts) * (a.nnz / n_parts)).astype(np.float64)
    cuts = np.searchsorted(a.ptr[1:-1], targets, side="left") + 1 if a.n_rows > 1 else np.array([], dtype=np.int64)
    # Clip to the row count; the running maximum repairs degenerate
    # matrices (many empty rows) into non-decreasing bounds.
    cuts = np.maximum.accumulate(np.minimum(cuts, a.n_rows))
    return RowPartition(a.n_rows, (0, *cuts.tolist(), a.n_rows))


def partition_rows_uniform(a: CSRMatrix, n_parts: int) -> RowPartition:
    """Equal-row-count split (ignores nnz balance)."""
    if n_parts < 1:
        raise ValueError(f"n_parts must be >= 1, got {n_parts}")
    if n_parts > max(a.n_rows, 1):
        raise ValueError(f"cannot split {a.n_rows} rows into {n_parts} parts")
    bounds = tuple(int(round(k * a.n_rows / n_parts)) for k in range(n_parts + 1))
    return RowPartition(a.n_rows, bounds)
