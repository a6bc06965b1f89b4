"""End-to-end integration tests: the paper's qualitative findings must
hold on the model at reduced scale.

Each test reproduces the *shape* of one paper claim on a small version
of the testbed; the benchmarks regenerate the full figures.
"""

from __future__ import annotations

import numpy as np

from repro.core import (
    SpMVExperiment,
    average_gflops,
    comparison_table,
    single_core_at_distance,
)
from repro.scc import CONF0, CONF1, CONF2
from repro.sparse import build_matrix, entry_by_id, iter_suite

SCALE = 0.05
MEM_BOUND_IDS = [2, 5, 7]     # F1, gupta3, sme3Dc stand-ins: huge ws
SMALL_IDS = [30, 31, 32]      # Na5, tandem_vtx, lhr10: small ws
SHORT_ROW_IDS = [24, 25]      # rajat09, ncvxbqp1


def experiments(ids, scale=SCALE):
    return [
        SpMVExperiment(a, name=e.name)
        for e, a in iter_suite(scale=scale, ids=ids)
    ]


class TestFig3Shape:
    def test_monotone_hop_degradation(self):
        exp = SpMVExperiment(build_matrix(7, scale=0.3), name="sme3Dc")
        perf = [
            exp.run(n_cores=1, mapping=single_core_at_distance(h)).mflops
            for h in range(4)
        ]
        assert perf == sorted(perf, reverse=True)
        assert 0.05 <= 1 - perf[3] / perf[0] <= 0.25  # paper: ~12%


class TestFig5Shape:
    def test_distance_reduction_wins_at_intermediate_counts(self):
        exp = SpMVExperiment(build_matrix(7, scale=0.5), name="sme3Dc")
        speedups = []
        for n in (8, 16, 24):
            std = exp.run(n_cores=n, mapping="standard")
            dr = exp.run(n_cores=n, mapping="distance_reduction")
            speedups.append(std.makespan / dr.makespan)
        assert max(speedups) > 1.05
        assert min(speedups) >= 0.999


class TestFig6Shape:
    def test_l2_resident_matrices_boost_at_high_core_counts(self):
        """Small-ws matrices overtake large ones once resident (Sec. IV-B)."""
        small = experiments(SMALL_IDS, scale=0.4)
        large = experiments(MEM_BOUND_IDS, scale=0.4)
        small_48 = average_gflops([e.run(n_cores=48) for e in small])
        large_48 = average_gflops([e.run(n_cores=48) for e in large])
        assert small_48 > 1.5 * large_48

    def test_short_row_matrices_miss_the_boost(self):
        """Matrices 24/25 stay slow despite fitting in L2 (small nnz/n)."""
        short = experiments(SHORT_ROW_IDS, scale=0.4)
        good = experiments(SMALL_IDS, scale=0.4)
        short_perf = average_gflops([e.run(n_cores=24) for e in short])
        good_perf = average_gflops([e.run(n_cores=24) for e in good])
        assert short_perf < 0.7 * good_perf


class TestFig7Shape:
    def test_disabling_l2_degrades_and_flattens(self):
        exp = SpMVExperiment(build_matrix(30, scale=0.4), name="Na5")
        on = exp.run(n_cores=24)
        off = exp.run(n_cores=24, config=CONF0.with_l2(False))
        assert off.makespan > 1.2 * on.makespan


class TestFig8Shape:
    def test_no_x_miss_speedup_largest_for_short_rows(self):
        speedups = {}
        for mid in SHORT_ROW_IDS + SMALL_IDS:
            e = entry_by_id(mid)
            exp = SpMVExperiment(build_matrix(mid, scale=0.4), name=e.name)
            base = exp.run(n_cores=8)
            nox = exp.run(n_cores=8, kernel="no_x_miss")
            speedups[mid] = base.makespan / nox.makespan
        worst_short = min(speedups[m] for m in SHORT_ROW_IDS)
        best_good = max(speedups[m] for m in SMALL_IDS)
        assert worst_short > best_good
        assert worst_short > 1.3


class TestFig9Shape:
    def test_conf1_fastest_conf2_between(self):
        exp = SpMVExperiment(build_matrix(7, scale=0.5), name="sme3Dc")
        r0 = exp.run(n_cores=48, config=CONF0)
        r1 = exp.run(n_cores=48, config=CONF1)
        r2 = exp.run(n_cores=48, config=CONF2)
        assert r1.makespan < r0.makespan
        assert r1.makespan <= r2.makespan
        assert r0.makespan / r1.makespan <= 1.55  # paper: up to 1.45

    def test_power_ordering(self):
        assert CONF0.full_chip_power() < CONF2.full_chip_power() < CONF1.full_chip_power()


class TestFig10Shape:
    def test_scc_beats_only_itanium(self):
        rows = comparison_table({"SCC conf0": (1.04, CONF0.full_chip_power())})
        perf = {r["system"]: r["gflops"] for r in rows}
        scc = perf["SCC conf0"]
        assert perf["Itanium2 Montvale"] < scc
        for other in ("Xeon X5570", "Opteron 6174", "Tesla C1060", "Tesla M2050"):
            assert perf[other] > scc

    def test_efficiency_ordering(self):
        rows = comparison_table({"SCC conf0": (1.04, CONF0.full_chip_power())})
        eff = {r["system"]: r["mflops_per_watt"] for r in rows}
        assert eff["Tesla M2050"] == max(eff.values())
        assert eff["SCC conf0"] > eff["Itanium2 Montvale"]


class TestNumericalEndToEnd:
    def test_full_pipeline_product_correct(self):
        a = build_matrix(12, scale=0.1)
        exp = SpMVExperiment(a, name="crystk03")
        x = np.random.default_rng(7).uniform(size=a.n_cols)
        r = exp.run(n_cores=16, iterations=1, verify=True, x=x)
        np.testing.assert_allclose(r.y, a.to_scipy() @ x, rtol=1e-9)

    def test_deterministic_makespans(self):
        a = build_matrix(30, scale=0.2)
        e1 = SpMVExperiment(a, name="Na5").run(n_cores=8)
        e2 = SpMVExperiment(a, name="Na5").run(n_cores=8)
        assert e1.makespan == e2.makespan
