"""Differential harness: analytic fast path vs event-driven simulator.

The fast path (``mode="model"``, :mod:`repro.sparse.fastpath` +
:func:`repro.core.timing.solve_core_times_batched` +
:func:`repro.core.timing.barrier_exit_times`) must reproduce the
simulator's numbers — per-core solve and barrier critical path are the
same arithmetic, so makespans and per-core times must match with ``==``
and derived rates within ``REL_TOL`` — and,
independently of absolute values, must rank every paper finding the
same way: which mapping wins (Fig. 5), how the chip configs order
(Fig. 9), and how L2-resident working sets split from streaming ones
(Fig. 6).  The battery crosses seeded generator matrices (the families
behind Table I) with cores x mappings x configs; suite-level rankings
run on real Table I stand-ins.

The final test pins the reason the fast path exists: a warm full-suite
``sweep_cores`` in ``mode="model"`` must stay within a fixed per-point
budget, counted in runs of a reference kernel timed alongside it.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.experiment import SpMVExperiment
from repro.core.figures import (
    FIG5_CORE_COUNTS,
    fig5_data,
    fig9_data,
    suite_experiments,
)
from repro.scc.chip import CONF0, CONF1, CONF2
from repro.scc.params import L2_BYTES
from repro.sparse.generators import banded, power_law, random_uniform, stencil_2d

#: the fidelity contract (docs/PERFORMANCE.md): identical arithmetic on
#: both paths makes the agreement exact; the tolerance only allows for
#: float noise a future refactor might legitimately introduce.
REL_TOL = 1e-9

#: ties closer than this relative margin don't count as a ranking.
TIE_TOL = 1e-6

CORE_COUNTS = (1, 4, 8, 24, 48)
MAPPINGS = ("standard", "distance_reduction")
CONFIGS = (CONF0, CONF1, CONF2)
ITERATIONS = 2

#: seeded generator battery — one matrix per sparsity family, sized so
#: the set spans both L2-resident and streaming working sets.
MATRICES = (
    ("banded", lambda: banded(3000, 9.0, 12, seed=11)),
    # sized to stream even at 24 cores (ws/core > 256 KiB L2)
    ("random", lambda: random_uniform(40000, 15.0, seed=12)),
    ("power_law", lambda: power_law(2200, 7.0, seed=13)),
    ("stencil", lambda: stencil_2d(48, 48, seed=14)),
)


@pytest.fixture(scope="module")
def grid():
    """(matrix, cores, mapping, config) -> (sim result, model result)."""
    out = {}
    for mat_name, build in MATRICES:
        exp = SpMVExperiment(build(), name=mat_name)
        for n in CORE_COUNTS:
            for mapping in MAPPINGS:
                for cfg in CONFIGS:
                    kwargs = dict(
                        n_cores=n,
                        mapping=mapping,
                        config=cfg,
                        iterations=ITERATIONS,
                    )
                    out[(mat_name, n, mapping, cfg.name)] = (
                        exp.run(mode="sim", **kwargs),
                        exp.run(mode="model", **kwargs),
                    )
    return out


def _ranking(values: dict, tie_tol: float = TIE_TOL):
    """Keys sorted by value, with near-ties collapsed to frozensets."""
    ordered = sorted(values, key=values.__getitem__, reverse=True)
    groups, current = [], [ordered[0]]
    for key in ordered[1:]:
        prev = values[current[-1]]
        if abs(prev - values[key]) <= tie_tol * max(abs(prev), 1e-300):
            current.append(key)
        else:
            groups.append(frozenset(current))
            current = [key]
    groups.append(frozenset(current))
    return groups


class TestMflopsAgreement:
    def test_mflops_within_tolerance(self, grid):
        """Every grid point's throughput agrees to REL_TOL."""
        worst = 0.0
        for key, (sim, model) in grid.items():
            rel = abs(sim.mflops - model.mflops) / sim.mflops
            worst = max(worst, rel)
            assert rel <= REL_TOL, f"{key}: sim {sim.mflops} vs model {model.mflops}"
        assert worst <= REL_TOL

    def test_makespans_match(self, grid):
        for key, (sim, model) in grid.items():
            assert model.makespan == sim.makespan, key

    def test_result_identity_fields_match(self, grid):
        for sim, model in grid.values():
            assert (sim.matrix_name, sim.n_cores, sim.config_name, sim.mapping) == (
                model.matrix_name,
                model.n_cores,
                model.config_name,
                model.mapping,
            )

    def test_per_core_times_match(self, grid):
        """Not just the aggregate: every per-core solve agrees exactly."""
        for key, (sim, model) in grid.items():
            assert model.per_core == sim.per_core, key


class TestRankingAgreement:
    def test_fig5_mapping_winner_per_matrix(self, grid):
        """Fig. 5: whichever mapping wins under the simulator wins under
        the model, for every matrix and core count."""
        for mat_name, _build in MATRICES:
            for n in CORE_COUNTS:
                sim_rank = _ranking(
                    {m: grid[(mat_name, n, m, CONF0.name)][0].mflops for m in MAPPINGS}
                )
                model_rank = _ranking(
                    {m: grid[(mat_name, n, m, CONF0.name)][1].mflops for m in MAPPINGS}
                )
                assert sim_rank == model_rank, (mat_name, n)

    def test_fig9_config_ordering_per_matrix(self, grid):
        """Fig. 9: the config speedup ordering is preserved."""
        for mat_name, _build in MATRICES:
            for n in CORE_COUNTS:
                sim_rank = _ranking(
                    {
                        cfg.name: grid[(mat_name, n, "distance_reduction", cfg.name)][0].mflops
                        for cfg in CONFIGS
                    }
                )
                model_rank = _ranking(
                    {
                        cfg.name: grid[(mat_name, n, "distance_reduction", cfg.name)][1].mflops
                        for cfg in CONFIGS
                    }
                )
                assert sim_rank == model_rank, (mat_name, n)

    def test_fig6_working_set_split(self, grid):
        """Fig. 6: both paths agree on which matrices are L2-resident at
        24 cores and that the resident group outperforms the streaming
        group by the same margin."""
        sim_small, sim_large, model_small, model_large = [], [], [], []
        for mat_name, _build in MATRICES:
            sim, model = grid[(mat_name, 24, "distance_reduction", CONF0.name)]
            assert sim.ws_per_core_bytes == model.ws_per_core_bytes
            if sim.ws_per_core_bytes <= L2_BYTES:
                sim_small.append(sim.mflops)
                model_small.append(model.mflops)
            else:
                sim_large.append(sim.mflops)
                model_large.append(model.mflops)
        # the battery must actually exercise the split
        assert sim_small and sim_large
        sim_gap = (sum(sim_small) / len(sim_small)) / (sum(sim_large) / len(sim_large))
        model_gap = (sum(model_small) / len(model_small)) / (
            sum(model_large) / len(model_large)
        )
        assert sim_gap > 1.0 and model_gap > 1.0
        assert model_gap == pytest.approx(sim_gap, rel=REL_TOL)


class TestSuiteFigureAgreement:
    """Figs. 5/9 on Table I stand-ins through the real figure pipeline."""

    SCALE = 0.05
    IDS = (7, 24, 30)

    @pytest.fixture(scope="class")
    def exps(self):
        return suite_experiments(scale=self.SCALE, ids=self.IDS)

    def test_fig5_series_and_winner(self, exps):
        counts = (1, 8, 24)
        sim_std, sim_dr = fig5_data(exps, ITERATIONS, counts, mode="sim")
        model_std, model_dr = fig5_data(exps, ITERATIONS, counts, mode="model")
        assert model_std == pytest.approx(sim_std, rel=REL_TOL)
        assert model_dr == pytest.approx(sim_dr, rel=REL_TOL)
        for i in range(len(counts)):
            assert _ranking({"std": sim_std[i], "dr": sim_dr[i]}) == _ranking(
                {"std": model_std[i], "dr": model_dr[i]}
            )

    def test_fig9_config_ordering(self, exps):
        counts = (8, 24)
        sim = fig9_data(exps, ITERATIONS, counts, mode="sim")
        model = fig9_data(exps, ITERATIONS, counts, mode="model")
        for n in counts:
            sim_avg = {
                name: sum(r.mflops for r in by_n[n]) / len(by_n[n])
                for name, by_n in sim.items()
            }
            model_avg = {
                name: sum(r.mflops for r in by_n[n]) / len(by_n[n])
                for name, by_n in model.items()
            }
            assert _ranking(sim_avg) == _ranking(model_avg)
            for name in sim_avg:
                assert model_avg[name] == pytest.approx(sim_avg[name], rel=REL_TOL)


#: the model sweep's budget per point, in runs of ``_reference_kernel_s``.
#: The warm full-suite sweep below reads 0.060-0.081 on a 2-CPU Xeon
#: container (the kernel takes ~1 ms there, a model point ~65 us), so
#: the bound leaves about the ~1.35x headroom the old "model >= 20x sim"
#: bar was set with against its 27x reading.
MODEL_POINT_BUDGET = 0.10

_KERNEL_KEYS = np.random.default_rng(0).integers(0, 1 << 20, 10_000)


def _reference_kernel_s() -> float:
    """Best of five runs of a fixed numpy + dict kernel that runs no repro
    code: the host's speed, measured next to the sweep it scales."""
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        np.argsort(_KERNEL_KEYS, kind="stable")
        counts: dict = {}
        for i in range(1500):
            counts[i & 1023] = counts.get(i & 1023, 0) + i
        best = min(best, time.perf_counter() - t0)
    return best


class TestSpeedup:
    def test_model_sweep_within_per_point_budget(self):
        """The reason the fast path exists: a warm full-suite model sweep
        stays within a fixed per-point budget.

        The budget is counted in runs of a reference kernel timed right
        before and after each sweep, so a slow or loaded host scales both
        sides alike.  The stream characterization and the model's
        schedule/solver caches are warmed first — in a figure campaign
        they are one-time setup.  The best of three sweeps is kept.  The
        yardstick used to be the ``sim`` sweep's wall clock, which every
        speed-up of the sim tier eroded.
        """
        exps = [exp for _mid, exp in suite_experiments(scale=0.01)]
        counts = FIG5_CORE_COUNTS
        for exp in exps:
            for n in counts:
                exp.traces(n)
                exp.batched_traces(n)
        for exp in exps:
            exp.sweep_cores(counts, iterations=ITERATIONS, mode="model")  # warm
        points = len(exps) * len(counts)

        per_point = float("inf")
        for _ in range(3):
            before = _reference_kernel_s()
            t0 = time.perf_counter()
            for exp in exps:
                exp.sweep_cores(counts, iterations=ITERATIONS, mode="model")
            sweep_s = time.perf_counter() - t0
            kernel_s = 0.5 * (before + _reference_kernel_s())
            per_point = min(per_point, sweep_s / points / kernel_s)

        assert per_point <= MODEL_POINT_BUDGET, (
            f"model sweep takes {per_point:.3f} kernel runs per point "
            f"(budget {MODEL_POINT_BUDGET}; {points} points)"
        )
