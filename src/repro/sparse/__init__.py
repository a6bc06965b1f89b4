"""Sparse-matrix substrate: formats, kernels, partitioning, testbed.

- :mod:`~repro.sparse.csr` / :mod:`~repro.sparse.coo` — storage formats.
- :mod:`~repro.sparse.spmv` — the CSR kernels (reference, vectorized,
  and the paper's 'no x misses' diagnostic variant).
- :mod:`~repro.sparse.partition` — balanced-nnz row partitioning.
- :mod:`~repro.sparse.generators` — synthetic sparsity-pattern families.
- :mod:`~repro.sparse.suite` — the reconstructed Table I testbed.
- :mod:`~repro.sparse.stats` — working-set and profile statistics.
- :mod:`~repro.sparse.io` — MatrixMarket reader/writer.
- :mod:`~repro.sparse.bcsr` — register-blocked BCSR format.
- :mod:`~repro.sparse.reorder` — Cuthill-McKee locality reordering.
- :mod:`~repro.sparse.fastpath` — vectorized analytic timing batch ops.
"""

from .bcsr import BCSRMatrix, bcsr_traffic_bytes, csr_traffic_bytes
from .fastpath import (
    BatchedSummaries,
    BatchedTraces,
    batch_access_summaries,
    batch_traces,
)
from .coo import COOMatrix
from .csr import CSRMatrix
from .generators import (
    banded,
    block_diagonal,
    fem_blocks,
    power_law,
    random_uniform,
    stencil_2d,
    with_dense_rows,
)
from .io import read_matrix_market, write_matrix_market
from .partition import RowPartition, partition_rows_balanced, partition_rows_uniform
from .reorder import (
    bandwidth,
    cuthill_mckee,
    gather_locality_gain,
    mean_column_distance,
    permute_symmetric,
    reverse_cuthill_mckee,
)
from .spmv import spmv, spmv_no_x_miss, spmv_reference, spmv_row_range
from .stats import (
    MatrixProfile,
    profile_matrix,
    working_set_bytes,
    working_set_mbytes,
    working_set_per_core,
)
from .suite import SUITE, SuiteEntry, build_matrix, entry_by_id, iter_suite, suite_table

__all__ = [
    "BatchedSummaries",
    "BatchedTraces",
    "batch_access_summaries",
    "batch_traces",
    "BCSRMatrix",
    "bcsr_traffic_bytes",
    "csr_traffic_bytes",
    "bandwidth",
    "cuthill_mckee",
    "gather_locality_gain",
    "mean_column_distance",
    "permute_symmetric",
    "reverse_cuthill_mckee",
    "COOMatrix",
    "CSRMatrix",
    "banded",
    "block_diagonal",
    "fem_blocks",
    "power_law",
    "random_uniform",
    "stencil_2d",
    "with_dense_rows",
    "read_matrix_market",
    "write_matrix_market",
    "RowPartition",
    "partition_rows_balanced",
    "partition_rows_uniform",
    "spmv",
    "spmv_no_x_miss",
    "spmv_reference",
    "spmv_row_range",
    "MatrixProfile",
    "profile_matrix",
    "working_set_bytes",
    "working_set_mbytes",
    "working_set_per_core",
    "SUITE",
    "SuiteEntry",
    "build_matrix",
    "entry_by_id",
    "iter_suite",
    "suite_table",
]
