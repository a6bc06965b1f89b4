"""The cold ``model`` point's shortcuts return bitwise what they replace.

* :func:`repro.sparse.fastpath.equilibrium_line_times` checks every
  controller's demand at its latency floor in one vectorized pass and
  bisects only when some controller is saturated; it must equal the
  per-group loop it grew from, bit for bit.
* The analytic tiers memoize a run's first barrier (every UE enters at
  0) per mapping; the memo must equal the recurrence it replaces.
* The sim tier passes the sweep's solver cache through
  :func:`repro.core.timing.solve_core_times`.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.experiment import SpMVExperiment, _zero_entry_exits
from repro.core.mapping import MAPPINGS
from repro.core.timing import barrier_exit_times
from repro.scc import CONF0
from repro.sparse import build_matrix, fastpath
from repro.sparse.fastpath import equilibrium_line_times

SET = settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])


# --- the per-group loop, verbatim as it stood before the shortcut -------------

def _reference_t_star(members, capacity, tol, max_iter):
    triples = [(a, m, la) for a, m, la in members if m > 0]

    def demand(t):
        total = 0.0
        for a, m, la in triples:
            total += m / (a + m * (t if t > la else la))
        return total

    lo = min(la for _a, _m, la in members)
    if demand(lo) <= capacity:
        return lo
    hi = max(lo, 1e-9)
    while demand(hi) > capacity:
        hi *= 2.0
        if hi > 1.0:
            return hi
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if demand(mid) > capacity:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol * hi:
            break
    return hi


def reference_line_times(
    base_times, mem_lines, latencies, mc_index, capacities,
    tol=1e-4, max_iter=100, groups: Optional[Sequence[tuple]] = None,
):
    base_l = base_times.tolist()
    lines_l = mem_lines.tolist()
    lat_l = latencies.tolist()
    if groups is None:
        by_mc: dict = {}
        for i, mc in enumerate(mc_index.tolist()):
            by_mc.setdefault(mc, []).append(i)
        groups = [(idx, float(capacities[mc])) for mc, idx in by_mc.items()]
    out = [0.0] * len(base_l)
    for idx, capacity in groups:
        t_star = _reference_t_star(
            [(base_l[i], lines_l[i], lat_l[i]) for i in idx], capacity, tol, max_iter
        )
        for i in idx:
            la = lat_l[i]
            out[i] = t_star if t_star > la else la
    return np.asarray(out, dtype=np.float64)


def groups_of(mc_index, capacities):
    """The ``(members, capacity)`` pairs a sweep precomputes."""
    by_mc: dict = {}
    for i, mc in enumerate(mc_index.tolist()):
        by_mc.setdefault(mc, []).append(i)
    return [(idx, float(capacities[mc])) for mc, idx in by_mc.items()]


# Capacities (lines/s) far above, far below and around the demand of a
# member (up to ~1e9 lines/s at the smallest latency).
CAPACITY = st.one_of(
    st.just(1e30), st.just(1.0), st.floats(1e4, 1e10, allow_nan=False)
)


@st.composite
def controller_cases(draw):
    n_mc = draw(st.integers(1, 4))
    n = draw(st.integers(1, 48))
    mc_index = np.array(draw(st.lists(st.integers(0, n_mc - 1), min_size=n, max_size=n)))
    base = np.array(draw(st.lists(
        st.one_of(st.just(0.0), st.floats(1e-6, 1e-2)), min_size=n, max_size=n
    )))
    lines = np.array(draw(st.lists(
        st.one_of(st.just(0.0), st.floats(1.0, 1e6)), min_size=n, max_size=n
    )))
    lats = np.array(draw(st.lists(st.floats(5e-8, 5e-7), min_size=n, max_size=n)))
    caps = draw(st.lists(CAPACITY, min_size=n_mc, max_size=n_mc))
    return base, lines, lats, mc_index, caps


def hexes(values):
    return [float(v).hex() for v in values]


def assert_matches_reference(base, lines, lats, mc_index, caps):
    want = hexes(reference_line_times(base, lines, lats, mc_index, caps))
    assert hexes(equilibrium_line_times(base, lines, lats, mc_index, caps)) == want
    groups = groups_of(mc_index, caps)
    got = equilibrium_line_times(base, lines, lats, mc_index, caps, groups=groups)
    assert hexes(got) == want


class TestUnsaturatedShortcut:
    @SET
    @given(controller_cases())
    def test_random_controllers_match_the_group_loop(self, case):
        assert_matches_reference(*case)

    @SET
    @given(controller_cases())
    def test_all_unsaturated(self, case):
        base, lines, lats, mc_index, caps = case
        assert_matches_reference(base, lines, lats, mc_index, [1e30] * len(caps))

    @SET
    @given(controller_cases())
    def test_all_saturated(self, case):
        base, lines, lats, mc_index, caps = case
        lines = np.maximum(lines, 1.0)
        assert_matches_reference(base, lines, lats, mc_index, [1.0] * len(caps))

    @SET
    @given(controller_cases(), st.integers(0, 3))
    def test_one_saturated_controller_among_idle_ones(self, case, hot):
        base, lines, lats, mc_index, caps = case
        caps = [1.0 if mc == hot else 1e30 for mc in range(4)]
        assert_matches_reference(base, lines, lats, mc_index % 4, caps)

    def test_members_without_lines_or_compute(self):
        # 0 / 0 would be NaN; a member with no lines adds no demand.
        base = np.array([0.0, 0.0, 1e-3, 0.0])
        lines = np.array([0.0, 0.0, 500.0, 0.0])
        lats = np.array([1e-7, 2e-7, 3e-7, 4e-7])
        mc = np.array([0, 1, 1, 2])
        for caps in ([1e30] * 3, [1.0] * 3, [1.0, 1e30, 1.0]):
            assert_matches_reference(base, lines, lats, mc, caps)
        with np.errstate(all="raise"):
            got = equilibrium_line_times(base, lines, lats, mc, [1e30] * 3)
        assert hexes(got) == hexes(lats)

    def test_single_core_groups(self):
        lats = np.array([1e-7, 2e-7, 3e-7])
        base = np.full(3, 1e-4)
        lines = np.array([10.0, 1e4, 1e6])
        for caps in ([1e30] * 3, [1.0] * 3, [1e30, 1e6, 1e3]):
            assert_matches_reference(base, lines, lats, np.arange(3), caps)

    def test_unsaturated_controllers_are_never_bisected(self, monkeypatch):
        calls = []
        bisect = fastpath._equilibrium_t_star
        monkeypatch.setattr(
            fastpath, "_equilibrium_t_star", lambda *a: calls.append(a) or bisect(*a)
        )
        lats = np.full(8, 1e-7)
        args = (np.full(8, 1e-3), np.full(8, 100.0), lats, np.arange(8) % 4)
        assert hexes(equilibrium_line_times(*args, [1e30] * 4)) == hexes(lats)
        assert calls == []
        equilibrium_line_times(*args, [1e30, 1e30, 1.0, 1e30])
        assert calls


# --- the first barrier, memoized per mapping ---------------------------------

@pytest.fixture(scope="module")
def exp():
    return SpMVExperiment(build_matrix(24, scale=0.02))


@pytest.mark.parametrize("mapping", sorted(MAPPINGS))
def test_memoized_zero_entry_exits_equal_the_recurrence(exp, mapping):
    mesh = exp._shared(exp.machine.interconnect, CONF0, exp.topology)
    for n in range(1, 49):
        core_map, _ = exp._core_map(mapping, n)
        want = hexes(barrier_exit_times([0.0] * n, core_map, mesh=mesh))
        exp.run(n_cores=n, mapping=mapping, iterations=1, mode="model")
        assert hexes(exp._shared(_zero_entry_exits, tuple(core_map), mesh)) == want, n


def test_sim_tier_fills_the_shared_solver_cache(exp):
    cache = SpMVExperiment._shared_solver_cache
    cache.clear()
    exp.run(n_cores=3, iterations=1, mode="sim")
    core_map, _ = exp._core_map("distance_reduction", 3)
    mem = exp._shared(exp.machine.memory_system, CONF0, exp.topology)
    assert (mem, tuple(core_map), CONF0) in cache
