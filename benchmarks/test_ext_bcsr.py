"""Extension E2 — register blocking (BCSR) traffic analysis.

The paper's Sec. V discusses Williams et al.'s register/cache blocking
as the canonical SpMV optimization.  On a bandwidth-starved chip like
the SCC the win is *traffic*: one block index per r x c block instead
of one per nonzero, bought with fill-in.  This benchmark evaluates the
trade on the testbed's block-structured vs scattered matrices and
checks the kernel's numerics.
"""

from __future__ import annotations

import numpy as np

from repro.core import SpMVExperiment, banner, format_table
from repro.core.blocked import run_bcsr_timing
from repro.sparse import build_matrix, entry_by_id
from repro.sparse.bcsr import BCSRMatrix, bcsr_traffic_bytes, csr_traffic_bytes

from conftest import bench_iterations

BLOCKY_IDS = [6, 12, 30]      # nd3k, crystk03, Na5: dense substructure
SCATTERED_IDS = [14, 25]      # sparsine, ncvxbqp1: no block structure
SHAPES = [(2, 2), (4, 4)]


def bcsr_data(scale: float):
    rows = []
    for mid in BLOCKY_IDS + SCATTERED_IDS:
        e = entry_by_id(mid)
        a = build_matrix(mid, scale=min(scale, 0.3))
        csr_bytes = csr_traffic_bytes(a.nnz, a.n_rows)
        row = {"id": mid, "name": e.name, "csr KB": csr_bytes / 1024}
        for r, c in SHAPES:
            b = BCSRMatrix.from_csr(a, r, c)
            row[f"fill {r}x{c}"] = b.fill_ratio()
            row[f"traffic {r}x{c}"] = bcsr_traffic_bytes(b) / csr_bytes
        rows.append(row)
    return rows


def test_ext_bcsr_traffic(benchmark, capsys, scale):
    rows = benchmark.pedantic(lambda: bcsr_data(scale), rounds=1, iterations=1)
    with capsys.disabled():
        print(banner("Extension E2: BCSR register blocking — traffic ratio vs CSR"))
        cols = ["id", "name", "csr KB"]
        for r, c in SHAPES:
            cols += [f"fill {r}x{c}", f"traffic {r}x{c}"]
        print(
            format_table(
                rows,
                cols,
                caption="traffic ratio < 1 means blocking saves memory traffic",
            )
        )
    by_id = {r["id"]: r for r in rows}
    # Block-structured matrices: some shape must save traffic.
    for mid in BLOCKY_IDS:
        assert min(by_id[mid][f"traffic {r}x{c}"] for r, c in SHAPES) < 1.0
    # Scattered matrices: blocking always loses.
    for mid in SCATTERED_IDS:
        assert all(by_id[mid][f"traffic {r}x{c}"] > 1.0 for r, c in SHAPES)


def simulated_bcsr_data(scale: float, iterations: int):
    rows = []
    for mid in BLOCKY_IDS + SCATTERED_IDS:
        e = entry_by_id(mid)
        a = build_matrix(mid, scale=min(scale, 0.5))
        csr = SpMVExperiment(a, name=e.name).run(n_cores=24, iterations=iterations)
        row = {"id": mid, "name": e.name, "CSR MFLOPS": csr.mflops}
        for r, c in SHAPES:
            b = BCSRMatrix.from_csr(a, r, c)
            res = run_bcsr_timing(b, n_cores=24, iterations=iterations)
            row[f"BCSR {r}x{c} MFLOPS"] = res.mflops
        rows.append(row)
    return rows


def test_ext_bcsr_simulated_performance(benchmark, capsys, scale):
    """Would register blocking have paid on the SCC?  Yes for the
    block-structured families, catastrophically not for scattered ones."""
    rows = benchmark.pedantic(
        lambda: simulated_bcsr_data(scale, bench_iterations()), rounds=1, iterations=1
    )
    with capsys.disabled():
        print(banner("Extension E2b: simulated CSR vs BCSR SpMV on 24 SCC cores"))
        cols = ["id", "name", "CSR MFLOPS"] + [f"BCSR {r}x{c} MFLOPS" for r, c in SHAPES]
        print(format_table(rows, cols, floatfmt=".1f"))
    by_id = {r["id"]: r for r in rows}
    for mid in BLOCKY_IDS:
        best = max(by_id[mid][f"BCSR {r}x{c} MFLOPS"] for r, c in SHAPES)
        assert best > by_id[mid]["CSR MFLOPS"]
    for mid in SCATTERED_IDS:
        worst = min(by_id[mid][f"BCSR {r}x{c} MFLOPS"] for r, c in SHAPES)
        assert worst < by_id[mid]["CSR MFLOPS"]


def test_ext_bcsr_kernel_correctness(benchmark, scale):
    """The blocked kernel's numerics under benchmark timing."""
    a = build_matrix(12, scale=min(scale, 0.2))
    b = BCSRMatrix.from_csr(a, 4, 4)
    x = np.random.default_rng(0).uniform(size=a.n_cols)
    y = benchmark(b.spmv, x)
    np.testing.assert_allclose(y, a.to_scipy() @ x, rtol=1e-9)
