"""Sensitivity of the study's conclusions to the calibrated constants.

Four numbers in the model are calibrated rather than published
(DESIGN.md §5): the P54C issue cost per nonzero, the L2 hit cost, the
per-row loop overhead, and the per-controller bandwidth.  A reproduction
whose conclusions flipped under a ±25 % wiggle of those constants would
be reporting tuning, not architecture.  This module perturbs the three
P54C timing constants (:data:`PERTURBABLE`) one at a time and
re-derives the headline *effects* (ratios, not absolute MFLOPS); the
controller bandwidth is not swept here (ablation A1b scales it 100x):

- Fig. 3's 3-hop degradation,
- Fig. 5's mapping speedup at 16 cores,
- Fig. 8's no-x-miss speedup on a short-row matrix,
- Fig. 9's conf1 speedup.

``benchmarks/test_ablation_sensitivity.py`` asserts every effect keeps
its direction and rough size across the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List

from ..scc.params import DEFAULT_TIMING, P54CTimingParams
from ..sparse.csr import CSRMatrix
from .experiment import SpMVExperiment
from .mapping import single_core_at_distance

__all__ = ["EffectSet", "measure_effects", "sensitivity_sweep", "PERTURBABLE"]

#: the calibrated constants a sweep may perturb.
PERTURBABLE = ("base_cycles_per_nnz", "l2_hit_cycles", "row_overhead_cycles")


@dataclass(frozen=True)
class EffectSet:
    """The headline effects, as dimensionless ratios."""

    hop3_degradation: float     # 1 - perf(3 hops)/perf(0 hops)
    mapping_speedup: float      # t(standard)/t(distance reduction) @16 cores
    no_x_speedup: float         # t(csr)/t(no_x_miss) on the short-row matrix
    conf1_speedup: float        # t(conf0)/t(conf1)

    def as_dict(self) -> Dict[str, float]:
        """The four effects as a name -> ratio mapping."""
        return {
            "hop3 deg": self.hop3_degradation,
            "mapping speedup": self.mapping_speedup,
            "no-x speedup": self.no_x_speedup,
            "conf1 speedup": self.conf1_speedup,
        }


def measure_effects(
    streaming: CSRMatrix,
    short_row: CSRMatrix,
    timing: P54CTimingParams = DEFAULT_TIMING,
    iterations: int = 8,
) -> EffectSet:
    """Re-derive the four headline effects under a given timing model.

    ``streaming`` should be a memory-bound matrix (working set well past
    L2 at 16 cores), ``short_row`` a scattered small-nnz/n matrix.
    """
    from ..scc.chip import CONF0, CONF1

    exp = SpMVExperiment(streaming, name="streaming", timing=timing)
    hop0 = exp.run(n_cores=1, mapping=single_core_at_distance(0), iterations=iterations)
    hop3 = exp.run(n_cores=1, mapping=single_core_at_distance(3), iterations=iterations)
    std = exp.run(n_cores=16, mapping="standard", iterations=iterations)
    dr = exp.run(n_cores=16, mapping="distance_reduction", iterations=iterations)
    c0 = exp.run(n_cores=16, config=CONF0, iterations=iterations)
    c1 = exp.run(n_cores=16, config=CONF1, iterations=iterations)

    sexp = SpMVExperiment(short_row, name="short", timing=timing)
    base = sexp.run(n_cores=8, iterations=iterations)
    nox = sexp.run(n_cores=8, kernel="no_x_miss", iterations=iterations)

    return EffectSet(
        hop3_degradation=1 - hop3.mflops / hop0.mflops,
        mapping_speedup=std.makespan / dr.makespan,
        no_x_speedup=base.makespan / nox.makespan,
        conf1_speedup=c0.makespan / c1.makespan,
    )


def sensitivity_sweep(
    streaming: CSRMatrix,
    short_row: CSRMatrix,
    factors: List[float] = [0.75, 1.0, 1.25],
    iterations: int = 8,
) -> List[dict]:
    """Perturb each calibrated constant by each factor; one record each."""
    for f in factors:
        if f <= 0:
            raise ValueError(f"perturbation factors must be positive, got {f}")
    rows = []
    for param in PERTURBABLE:
        for f in factors:
            timing = replace(
                DEFAULT_TIMING, **{param: getattr(DEFAULT_TIMING, param) * f}
            )
            effects = measure_effects(streaming, short_row, timing, iterations)
            row = {"param": param, "factor": f}
            row.update(effects.as_dict())
            rows.append(row)
    return rows
