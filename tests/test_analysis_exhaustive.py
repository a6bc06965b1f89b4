"""Exhaustive dynamic check: every verdict at every core count 2..48.

The SCC boots at most 48 UEs, so running a program under the runtime
checkers (RT801-805) at each ``n_ues`` in 2..48 settles its verdict for
every job size the chip can run.  A run takes one side of each
data-dependent branch, so the clean corpus forces every such branch
through its inputs, and each test asserts the branch was taken.
"""

from __future__ import annotations

import os
from functools import partial

import numpy as np
import pytest

from repro.analysis.check import BATTERY, load_program, run_checked
from repro.apps import graph_matrix, make_spd
from repro.apps.cg import _cg_ue
from repro.apps.pagerank import _pagerank_ue
from repro.scc.topology import N_CORES
from repro.sparse import banded, partition_rows_balanced, partition_rows_uniform

from .fixtures import buggy_programs as buggy

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: every job size the SCC can boot with at least one peer per UE.
ALL_N = range(2, N_CORES + 1)
#: iterative solvers run to convergence at these sizes only (time budget).
CONVERGE_N = (2, 3, 17, 48)
CYCLES_PER_NNZ = 30.0


def load(relpath: str):
    return load_program(os.path.join(REPO, relpath))[1]


def check_all(fn, args_for=None, counts=ALL_N):
    """``run_checked`` at every count; ``args_for(n)`` gives the extra args."""
    return {
        n: run_checked(
            fn.__name__,
            fn,
            n,
            args_factory=None if args_for is None else partial(args_for, n),
            verify_determinism=False,
        )
        for n in counts
    }


def assert_clean(results):
    for n, r in results.items():
        assert r.completed, f"did not complete at n_ues={n}"
        assert r.findings == [], f"n_ues={n}: " + "; ".join(map(str, r.findings))


def assert_fires(results, rule, completed):
    for n, r in results.items():
        assert r.completed is completed, f"completed={r.completed} at n_ues={n}"
        assert rule in {f.rule for f in r.findings}, f"no {rule} at n_ues={n}"


def divergent_root(comm):
    yield from comm.reduce(1.0, root=comm.ue % 2)


def extra_barrier_on_ue0(comm):
    if comm.ue == 0:
        yield from comm.barrier()
        yield from comm.barrier()
    else:
        yield from comm.barrier()


class TestSeededFixturePair:
    """The broken ring hangs at every core count; its fix never does."""

    def test_deadlock_ring_detected_for_all_core_counts(self):
        fn = load("tests/fixtures/df_deadlock_ring.py:ring_exchange_deadlock")
        assert_fires(check_all(fn), "RT801", completed=False)

    def test_fixed_ring_is_clean_for_all_core_counts(self):
        assert_clean(check_all(load("tests/fixtures/df_ring_fixed.py:ring_exchange_fixed")))


class TestBuggyFixtures:
    def test_tag_mismatch_deadlocks(self):
        assert_fires(check_all(buggy.deadlock_tag_mismatch), "RT801", completed=False)

    def test_all_recv_deadlocks(self):
        assert_fires(check_all(buggy.deadlock_all_recv), "RT801", completed=False)

    def test_collective_kind_mismatch(self):
        assert_fires(check_all(buggy.collective_kind_mismatch), "RT804", completed=True)

    def test_collective_size_mismatch(self):
        assert_fires(check_all(buggy.collective_size_mismatch), "RT805", completed=True)


class TestCollectiveCongruence:
    def test_divergent_root_deadlocks(self):
        assert_fires(check_all(divergent_root), "RT801", completed=False)

    def test_extra_barrier_deadlocks(self):
        assert_fires(check_all(extra_barrier_on_ue0), "RT801", completed=False)


@pytest.fixture(scope="module")
def spd_system():
    a = make_spd(banded(96, 4.0, 4, seed=3))
    b = a.to_scipy() @ np.random.default_rng(1).uniform(size=a.n_rows)
    return a, b


@pytest.fixture(scope="module")
def spmv_inputs():
    a = banded(240, 6.0, 8, seed=5)
    x = np.random.default_rng(2).uniform(size=a.n_cols)
    return a, x


class TestCleanCorpus:
    """Shipped correct programs: completed, no findings, every branch taken."""

    def test_lint_clean_program(self):
        assert_clean(check_all(load("tests/fixtures/lint_clean.py:program")))

    @pytest.mark.parametrize("fn", [b[1] for b in BATTERY], ids=[b[0] for b in BATTERY])
    def test_battery_program(self, fn):
        assert_clean(check_all(fn))

    def test_rcce_programming_spmv(self, spmv_inputs):
        a, x = spmv_inputs
        fn = load("examples/rcce_programming.py:spmv_program")
        products = {}

        def args_for(n):
            products[n] = {}
            return a, x, partition_rows_balanced(a, n), products[n]

        assert_clean(check_all(fn, args_for))
        expected = a.to_scipy() @ x
        for n, per_ue in products.items():
            assert sorted(per_ue) == list(range(n))
            assert all(np.allclose(y, expected) for y in per_ue.values())

    @pytest.mark.parametrize("downshift", [False, True])
    def test_power_aware_spmv(self, spmv_inputs, downshift):
        a, x = spmv_inputs
        fn = load("examples/power_aware_spmv.py:spmv_job")
        logs = {}

        def args_for(n):
            logs[n] = []
            return a, x, partition_rows_uniform(a, n), downshift, logs[n]

        assert_clean(check_all(fn, args_for))
        assert all(len(log) == (n if downshift else 0) for n, log in logs.items())

    def _cg(self, a, b, max_iter, counts=ALL_N):
        outs = {}

        def args_for(n):
            outs[n] = [None] * n
            return (a, b, partition_rows_balanced(a, n), 1e-8, max_iter,
                    CYCLES_PER_NNZ, outs[n])

        assert_clean(check_all(_cg_ue, args_for, counts))
        return {n: out[0] for n, out in outs.items()}

    def test_cg_zero_rhs_converges_before_loop(self, spd_system):
        a, _ = spd_system
        for _x, iterations, _res, converged in self._cg(a, np.zeros(a.n_rows), 500).values():
            assert iterations == 0 and converged

    def test_cg_stops_at_max_iter(self, spd_system):
        a, b = spd_system
        for _x, iterations, _res, converged in self._cg(a, b, 2).values():
            assert iterations == 2 and not converged

    def test_cg_converges(self, spd_system):
        a, b = spd_system
        for _x, iterations, _res, converged in self._cg(a, b, 500, CONVERGE_N).values():
            assert iterations > 2 and converged

    def _pagerank(self, max_iter, tol, counts=ALL_N):
        p = graph_matrix(96, 3, seed=7)
        outs = {}

        def args_for(n):
            outs[n] = [None] * n
            return (p, partition_rows_balanced(p, n), 0.85, tol, max_iter,
                    CYCLES_PER_NNZ, outs[n])

        assert_clean(check_all(_pagerank_ue, args_for, counts))
        return {n: out[0] for n, out in outs.items()}

    def test_pagerank_stops_at_max_iter(self):
        for _x, iterations, delta in self._pagerank(1, 1e-10).values():
            assert iterations == 1 and delta > 1e-10

    def test_pagerank_converges(self):
        for _x, iterations, delta in self._pagerank(200, 1e-10, CONVERGE_N).values():
            assert 1 < iterations < 200 and delta <= 1e-10
