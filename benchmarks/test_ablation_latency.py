"""Ablation A1 — which model terms carry which paper effects.

Two controlled knock-outs:

* zeroing the mesh-hop term of Eq. 1 must flatten the Fig. 3 hop
  degradation (the effect is *caused* by the distance term, not an
  artifact of the rest of the model);
* inflating the MC bandwidth by 100x must collapse the Fig. 5
  standard-vs-distance-reduction gap at intermediate core counts (the
  mapping win is a memory-contention effect).

Each knock-out is a machine whose memory system is the SCC's with one
parameter changed, passed to the experiment as ``machine=``; nothing
global is patched, so the ablated runs cannot share a memo with the
full model's.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core import banner, format_series, single_core_at_distance
from repro.core.experiment import SpMVExperiment
from repro.machine import SCCMachine
from repro.sparse import build_matrix

HOPS = [0, 1, 2, 3]


class AblatedSCC(SCCMachine):
    """The SCC with its memory system passed through ``tweak``."""

    def __init__(self, tweak):
        super().__init__()
        self.tweak = tweak

    def memory_system(self, config, topology=None):
        return self.tweak(super().memory_system(config, topology))


@pytest.fixture()
def matrix(scale):
    return build_matrix(7, scale=min(scale, 0.5))  # sme3Dc: memory-bound


def experiment(a, machine=None):
    e = SpMVExperiment(a, name="sme3Dc", machine=machine)
    e.traces(1)
    e.traces(16)
    return e


def hop_series(exp):
    return [
        exp.run(n_cores=1, mapping=single_core_at_distance(h)).mflops for h in HOPS
    ]


def test_ablation_hop_term(benchmark, capsys, matrix):
    baseline = hop_series(experiment(matrix))
    no_hops = experiment(
        matrix, AblatedSCC(lambda mem: replace(mem, lat_mesh_cycles_per_hop=0.0))
    )
    ablated = benchmark.pedantic(lambda: hop_series(no_hops), rounds=1, iterations=1)
    with capsys.disabled():
        print(banner("Ablation A1a: Eq. 1 without the mesh-hop term"))
        print(
            format_series(
                "hops",
                HOPS,
                {"full model MFLOPS/s": baseline, "no hop term MFLOPS/s": ablated},
                caption="single core, sme3Dc (hop degradation must vanish)",
                floatfmt=".2f",
            )
        )
    full_degradation = 1 - baseline[3] / baseline[0]
    ablated_degradation = 1 - ablated[3] / ablated[0]
    assert full_degradation > 0.05
    assert abs(ablated_degradation) < 0.01


def mapping_gap(exp, n_cores=16):
    std = exp.run(n_cores=n_cores, mapping="standard")
    dr = exp.run(n_cores=n_cores, mapping="distance_reduction")
    return std.makespan / dr.makespan


def test_ablation_mc_bandwidth(benchmark, capsys, matrix):
    baseline_gap = mapping_gap(experiment(matrix))
    wide = experiment(
        matrix, AblatedSCC(lambda mem: replace(mem, bandwidth_per_mc=mem.bandwidth_per_mc * 100))
    )
    ablated_gap = benchmark.pedantic(lambda: mapping_gap(wide), rounds=1, iterations=1)
    with capsys.disabled():
        print(banner("Ablation A1b: 100x memory-controller bandwidth"))
        print(
            f"mapping speedup at 16 cores: full model {baseline_gap:.3f}, "
            f"unconstrained MCs {ablated_gap:.3f}"
        )
        print("(the distance-reduction win must collapse toward the pure-latency gap)")
    assert baseline_gap > 1.05
    assert ablated_gap < baseline_gap - 0.03
