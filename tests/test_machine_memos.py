"""Machine parameters are values: re-parameterized machines never alias.

``SpMVExperiment`` shares its mapping, power, substrate and barrier
memos across experiments, and the solver memoizes per memory system.
Those memos are keyed by the machine, topology and memory-system
*objects*, so a machine built with different parameters gets its own
answers whatever ran before it in the process.
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import repro
from repro.core import single_core_at_distance
from repro.core.experiment import SpMVExperiment
from repro.machine import FT2000PlusMachine, SCCMachine
from repro.sparse import build_matrix

STRETCHED_FT = """
from repro.core.experiment import SpMVExperiment
from repro.machine import FT2000PlusMachine
from repro.sparse import build_matrix
exp = SpMVExperiment(build_matrix(10, scale=0.02), machine=FT2000PlusMachine(inter_panel_hop_cost=40))
print(exp.run(n_cores=64, mode="model").makespan.hex())
"""


def _ft_makespan(machine) -> float:
    exp = SpMVExperiment(build_matrix(10, scale=0.02), machine=machine)
    return exp.run(n_cores=64, mode="model").makespan


def test_stretched_ft2000plus_ignores_the_registry_run_before_it():
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", STRETCHED_FT],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    alone = float.fromhex(proc.stdout.strip())

    registry = _ft_makespan("ft2000plus-64")
    after = _ft_makespan(FT2000PlusMachine(inter_panel_hop_cost=40))
    assert after == alone
    assert after != registry


class FlatMeshSCC(SCCMachine):
    """The SCC with the Eq. 1 hop coefficient zeroed."""

    def memory_system(self, config, topology=None):
        mem = super().memory_system(config, topology)
        return replace(mem, lat_mesh_cycles_per_hop=0.0)


@pytest.mark.parametrize("mode", ["sim", "model"])
def test_zero_hop_coefficient_flattens_the_hop_series(mode):
    a = build_matrix(7, scale=0.05)

    def hop_series(machine):
        exp = SpMVExperiment(a, machine=machine)
        return [
            exp.run(n_cores=1, mapping=single_core_at_distance(h), mode=mode).makespan
            for h in range(4)
        ]

    full = hop_series("scc-48")
    flat = hop_series(FlatMeshSCC())
    assert full[3] > full[0]
    assert flat == [flat[0]] * 4
    assert flat[0] == full[0]
