"""Aggregate metrics over experiment results.

The paper reports suite-wide *average* MFLOPS/s per configuration and
speedups of one configuration over another; these helpers compute both
plus the load-balance and efficiency numbers used in the analysis.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from .experiment import ExperimentResult

__all__ = [
    "average_gflops",
    "geomean_gflops",
    "speedup",
    "speedup_series",
    "average_mflops_per_watt",
    "parallel_efficiency",
]


def _check_nonempty(results: Sequence[ExperimentResult]) -> None:
    if not results:
        raise ValueError("results must be non-empty")


def average_gflops(results: Sequence[ExperimentResult]) -> float:
    """Arithmetic mean GFLOPS/s (the paper's headline aggregate)."""
    _check_nonempty(results)
    return float(np.mean([r.gflops for r in results]))


def geomean_gflops(results: Sequence[ExperimentResult]) -> float:
    """Geometric mean GFLOPS/s (robust to the suite's heavy spread)."""
    _check_nonempty(results)
    vals = np.array([r.gflops for r in results])
    if np.any(vals <= 0):
        raise ValueError("geometric mean requires positive throughputs")
    return float(np.exp(np.log(vals).mean()))


def speedup(fast: ExperimentResult, slow: ExperimentResult) -> float:
    """Time ratio slow/fast of two runs of the same workload."""
    if (fast.matrix_name, fast.nnz, fast.iterations) != (
        slow.matrix_name,
        slow.nnz,
        slow.iterations,
    ):
        raise ValueError(
            "speedup compares runs of the same matrix and iteration count; got "
            f"{fast.matrix_name!r} x{fast.iterations} vs {slow.matrix_name!r} x{slow.iterations}"
        )
    return slow.makespan / fast.makespan


def speedup_series(
    fast: Sequence[ExperimentResult],
    slow: Sequence[ExperimentResult],
) -> List[float]:
    """Element-wise speedups of two equally long result series."""
    if len(fast) != len(slow):
        raise ValueError(f"series lengths differ: {len(fast)} vs {len(slow)}")
    return [speedup(f, s) for f, s in zip(fast, slow)]


def average_mflops_per_watt(results: Sequence[ExperimentResult]) -> float:
    """Mean suite MFLOPS/s divided by the (common) full-system wattage."""
    _check_nonempty(results)
    watts = {r.power_watts for r in results}
    if len(watts) != 1:
        raise ValueError(f"results span multiple power states: {sorted(watts)}")
    return float(np.mean([r.mflops for r in results])) / watts.pop()


def parallel_efficiency(results_by_cores: Dict[int, ExperimentResult]) -> Dict[int, float]:
    """Speedup over the 1-core run divided by core count."""
    if not results_by_cores:
        raise ValueError("results must be non-empty")
    if 1 not in results_by_cores:
        raise ValueError("need the 1-core run as the efficiency baseline")
    base = results_by_cores[1].makespan
    return {
        n: (base / r.makespan) / n
        for n, r in sorted(results_by_cores.items())
    }
