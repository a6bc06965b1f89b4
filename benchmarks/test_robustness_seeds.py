"""Robustness R1 — conclusions must not depend on the generator seed.

The testbed is synthetic; if a headline finding flipped under a
different random draw of the same pattern family, it would be an
artifact of the stand-ins rather than of the architecture.  This
benchmark re-derives three key effects under three seeds each.
"""

from __future__ import annotations

from repro.core import SpMVExperiment, banner, format_table, single_core_at_distance
from repro.sparse.suite import build_matrix

from conftest import bench_iterations

SEEDS = [20120101, 4242, 777]
SCALE = 0.3


def seed_data(iterations: int):
    rows = []
    for seed in SEEDS:
        # Fresh matrices per seed (bypass the lru_cache key via seed arg).
        sme3dc = SpMVExperiment(build_matrix(7, SCALE, seed), name="sme3Dc")
        ncvx = SpMVExperiment(build_matrix(25, SCALE, seed), name="ncvxbqp1")
        na5 = SpMVExperiment(build_matrix(30, SCALE, seed), name="Na5")

        hop0 = sme3dc.run(n_cores=1, mapping=single_core_at_distance(0), iterations=iterations)
        hop3 = sme3dc.run(n_cores=1, mapping=single_core_at_distance(3), iterations=iterations)
        base = ncvx.run(n_cores=8, iterations=iterations)
        nox = ncvx.run(n_cores=8, kernel="no_x_miss", iterations=iterations)
        std = sme3dc.run(n_cores=16, mapping="standard", iterations=iterations)
        dr = sme3dc.run(n_cores=16, mapping="distance_reduction", iterations=iterations)
        resident = na5.run(n_cores=24, iterations=iterations)

        rows.append(
            {
                "seed": seed,
                "hop3 deg %": 100 * (1 - hop3.mflops / hop0.mflops),
                "no-x speedup": base.makespan / nox.makespan,
                "mapping speedup": std.makespan / dr.makespan,
                "resident MFLOPS": resident.mflops,
            }
        )
    return rows


def test_robustness_across_seeds(benchmark, capsys):
    rows = benchmark.pedantic(
        lambda: seed_data(bench_iterations()), rounds=1, iterations=1
    )
    with capsys.disabled():
        print(banner("Robustness R1: key effects under three generator seeds"))
        print(
            format_table(
                rows,
                ["seed", "hop3 deg %", "no-x speedup", "mapping speedup", "resident MFLOPS"],
                caption="each effect must hold for every seed",
                floatfmt=".2f",
            )
        )
    for r in rows:
        assert 5.0 < r["hop3 deg %"] < 25.0          # Fig. 3 effect
        assert r["no-x speedup"] > 1.3               # Fig. 8 short-row effect
        assert r["mapping speedup"] > 1.05           # Fig. 5 effect
        assert r["resident MFLOPS"] > 600            # Fig. 6 boost
    # And the effects are quantitatively stable (spread < 15%).
    for key in ("hop3 deg %", "no-x speedup", "mapping speedup"):
        vals = [r[key] for r in rows]
        assert max(vals) / min(vals) < 1.15
