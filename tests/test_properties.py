"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.rcce import RCCERuntime
from repro.scc import (
    Cache,
    SCCTopology,
    footprint_curve,
    line_links,
    locality,
    miss_ratio_curve,
    reuse_profile,
    reuse_times,
    window_profile,
)
from repro.scc.locality import _link_dtype, stable_argsort
from repro.sim import Simulator
from repro.sparse import (
    SUITE,
    COOMatrix,
    build_matrix,
    partition_rows_balanced,
    spmv,
    spmv_reference,
    working_set_bytes,
)

SET = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])


# --- strategies -------------------------------------------------------------

@st.composite
def coo_matrices(draw, max_n=40, max_nnz=200):
    n = draw(st.integers(1, max_n))
    nnz = draw(st.integers(0, max_nnz))
    rows = draw(hnp.arrays(np.int64, nnz, elements=st.integers(0, n - 1)))
    cols = draw(hnp.arrays(np.int64, nnz, elements=st.integers(0, n - 1)))
    vals = draw(
        hnp.arrays(
            np.float64,
            nnz,
            elements=st.floats(-100, 100, allow_nan=False, allow_infinity=False),
        )
    )
    return COOMatrix(n, n, rows, cols, vals)


line_streams = hnp.arrays(
    np.int64,
    st.integers(1, 300),
    elements=st.integers(0, 40),
)


# --- sparse properties ---------------------------------------------------------

class TestSparseProperties:
    @SET
    @given(coo_matrices())
    def test_csr_roundtrip_matches_dense(self, coo):
        csr = coo.to_csr()
        np.testing.assert_allclose(csr.to_dense(), coo.to_dense(), rtol=1e-12, atol=1e-12)

    @SET
    @given(coo_matrices())
    def test_spmv_matches_reference(self, coo):
        csr = coo.to_csr()
        x = np.linspace(-1.0, 1.0, csr.n_cols)
        np.testing.assert_allclose(
            spmv(csr, x), spmv_reference(csr, x), rtol=1e-9, atol=1e-9
        )

    @SET
    @given(coo_matrices(), st.integers(1, 8))
    def test_partition_covers_and_balances(self, coo, k):
        csr = coo.to_csr()
        k = min(k, csr.n_rows)
        p = partition_rows_balanced(csr, k)
        assert p.bounds[0] == 0 and p.bounds[-1] == csr.n_rows
        assert p.part_nnz(csr).sum() == csr.nnz
        # No part exceeds the ideal share by more than the largest row.
        max_row = int(csr.row_lengths().max()) if csr.n_rows else 0
        assert p.part_nnz(csr).max() <= csr.nnz / k + max_row + 1

    @SET
    @given(coo_matrices(), st.integers(1, 6))
    def test_parallel_blocks_reassemble_product(self, coo, k):
        csr = coo.to_csr()
        k = min(k, csr.n_rows)
        x = np.linspace(0.5, 1.5, csr.n_cols)
        p = partition_rows_balanced(csr, k)
        from repro.sparse import spmv_row_range

        parts = [spmv_row_range(csr, x, lo, hi) for lo, hi in p.ranges()]
        # The prefix-sum reduction cancels catastrophically on rows whose
        # sum is tiny next to their neighbours', so bound the absolute
        # error by the magnitude flowing through the cumsum.
        atol = 1e-12 * (np.abs(csr.da).sum() + 1.0)
        np.testing.assert_allclose(
            np.concatenate(parts), spmv(csr, x), rtol=1e-9, atol=atol
        )

    @SET
    @given(st.integers(0, 10**6), st.integers(0, 10**7))
    def test_working_set_positive_and_monotone(self, n, nnz):
        ws = working_set_bytes(n, nnz)
        assert ws >= 4
        assert working_set_bytes(n + 1, nnz) > ws
        assert working_set_bytes(n, nnz + 1) > ws


# --- locality model properties ------------------------------------------------

class TestLocalityProperties:
    @SET
    @given(line_streams)
    def test_reuse_times_consistency(self, lines):
        rt, first = reuse_times(lines)
        assert first.sum() == len(set(lines.tolist()))
        # Non-first accesses have positive reuse times bounded by position.
        for i in np.flatnonzero(~first):
            assert 1 <= rt[i] <= i

    @SET
    @given(line_streams)
    def test_footprint_monotone_and_bounded(self, lines):
        fp = footprint_curve(reuse_profile(lines))
        assert fp.values[0] == 0.0
        assert (np.diff(fp.values) >= -1e-9).all()
        assert fp.values[-1] == pytest.approx(len(set(lines.tolist())))

    @SET
    @given(line_streams)
    def test_footprint_of_full_window_is_distinct_count(self, lines):
        fp = footprint_curve(reuse_profile(lines))
        assert fp(len(lines)) == pytest.approx(len(set(lines.tolist())))

    @SET
    @given(line_streams, st.integers(1, 64))
    def test_miss_count_between_cold_and_total(self, lines, capacity):
        mrc = miss_ratio_curve(lines)
        misses = mrc.misses(capacity)
        assert mrc.profile.cold_misses <= misses <= len(lines)

    @SET
    @given(line_streams)
    def test_mrc_monotone_in_capacity(self, lines):
        mrc = miss_ratio_curve(lines)
        last = None
        for cap in (1, 2, 4, 8, 16, 32, 64):
            m = mrc.misses(cap)
            if last is not None:
                assert m <= last
            last = m


# --- exact cache properties -----------------------------------------------------

class TestCacheProperties:
    @SET
    @given(line_streams)
    def test_exact_cache_miss_bounds(self, lines):
        cache = Cache(size_bytes=16 * 32, assoc=4, line_bytes=32)
        misses = cache.access_trace(lines * 32)
        assert len(set(lines.tolist())) <= misses <= len(lines)

    @SET
    @given(line_streams)
    def test_bigger_cache_never_worse_when_fully_assoc_equivalent(self, lines):
        """With a single set (fully associative), more ways never hurt."""
        small = Cache(size_bytes=4 * 32, assoc=4, line_bytes=32)
        big = Cache(size_bytes=16 * 32, assoc=16, line_bytes=32)
        assert big.access_trace(lines * 32) <= small.access_trace(lines * 32)

    @SET
    @given(line_streams)
    def test_true_lru_second_pass_never_misses_more(self, lines):
        """True LRU has the stack property: replaying a trace cannot
        miss more the second time.  (Tree pseudo-LRU does NOT guarantee
        this — hypothesis found a counterexample — which is why this
        invariant is checked against an LRU reference, not the
        hardware-accurate simulator.)"""

        def lru_misses(trace, capacity):
            stack: list = []
            misses = 0
            for line in trace:
                if line in stack:
                    stack.remove(line)
                else:
                    misses += 1
                    if len(stack) >= capacity:
                        stack.pop()
                stack.insert(0, line)
            return misses

        m1 = lru_misses(lines.tolist(), 8)
        m2 = lru_misses(np.tile(lines, 2).tolist(), 8)
        assert m2 <= 2 * m1

    @SET
    @given(line_streams)
    def test_plru_double_pass_bounded_by_trace_length(self, lines):
        """The pseudo-LRU hardware cache still obeys the trivial bounds
        even where the stack property fails."""
        c2 = Cache(size_bytes=8 * 32, assoc=4, line_bytes=32)
        m2 = c2.access_trace(np.tile(lines, 2) * 32)
        assert len(set(lines.tolist())) <= m2 <= 2 * len(lines)


# --- topology properties -----------------------------------------------------------

class TestTopologyProperties:
    @SET
    @given(st.integers(0, 47), st.integers(0, 47))
    def test_hops_symmetric_triangle(self, a, b):
        topo = SCCTopology()
        ta, tb = topo.tile_of_core(a), topo.tile_of_core(b)
        ca, cb = (ta.x, ta.y), (tb.x, tb.y)
        assert topo.hops_between(ca, cb) == topo.hops_between(cb, ca)
        assert topo.hops_between(ca, cb) <= 8  # mesh diameter

    @SET
    @given(st.integers(1, 48))
    def test_distance_mapping_prefix_stability(self, n):
        from repro.core import distance_reduction_mapping

        topo = SCCTopology()
        full = distance_reduction_mapping(48, topo)
        assert distance_reduction_mapping(n, topo) == full[:n]


# --- runtime properties -------------------------------------------------------------

class TestRuntimeProperties:
    @SET
    @given(st.integers(1, 16), st.integers(0, 1000))
    def test_allreduce_sum_invariant(self, n, offset):
        def fn(comm):
            return (yield from comm.allreduce(comm.ue + offset))

        rt = RCCERuntime(list(range(n)))
        res = rt.run(fn)
        expected = sum(range(n)) + n * offset
        assert all(r.value == expected for r in res)

    @SET
    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
    def test_makespan_equals_max_compute(self, durations):
        def fn(comm):
            yield from comm.compute(durations[comm.ue])

        rt = RCCERuntime(list(range(len(durations))))
        res = rt.run(fn)
        assert rt.makespan(res) == pytest.approx(max(durations), abs=1e-12)

    @SET
    @given(st.lists(st.tuples(st.floats(0, 10), st.integers(0, 5)), max_size=20))
    def test_simulator_time_never_regresses(self, events):
        sim = Simulator()
        stamps = []
        for delay, _ in events:
            sim.schedule(delay, lambda: stamps.append(sim.now))
        sim.run()
        assert stamps == sorted(stamps)


# --- windows over shared line links -------------------------------------------

def naive_profile(lines):
    """Reuse profile by direct bookkeeping: reuse hist, first and last times."""
    seen, last, hist = {}, {}, np.zeros(len(lines) + 1, dtype=np.int64)
    for t, line in enumerate(lines.tolist(), start=1):
        if line in seen:
            hist[t - last[line]] += 1
        else:
            seen[line] = t
        last[line] = t
    return hist, sorted(seen.values()), sorted(last.values())


@st.composite
def windowed_streams(draw):
    lines = draw(line_streams)
    lo = draw(st.integers(0, len(lines)))
    hi = draw(st.integers(lo, len(lines)))
    return lines, lo, hi


class TestWindowProfileProperties:
    @SET
    @given(windowed_streams())
    def test_window_equals_profile_of_slice(self, case):
        lines, lo, hi = case
        got = window_profile(line_links(lines), lo, hi)
        want = reuse_profile(lines[lo:hi])
        assert got.n_accesses == want.n_accesses == hi - lo
        assert got.n_lines == want.n_lines == len(set(lines[lo:hi].tolist()))
        assert np.array_equal(got.reuse_hist, want.reuse_hist)
        assert sorted(got.first_times.tolist()) == sorted(want.first_times.tolist())
        assert sorted(got.last_times.tolist()) == sorted(want.last_times.tolist())
        assert footprint_curve(got).values.tobytes() == footprint_curve(want).values.tobytes()
        windowed = miss_ratio_curve(links=line_links(lines), lo=lo, hi=hi)
        sliced = miss_ratio_curve(lines[lo:hi])
        for cap in (0, 1, 3, 8, 64):
            assert windowed.misses(cap) == sliced.misses(cap)
        if hi > lo:
            hist, firsts, lasts = naive_profile(lines[lo:hi])
            assert np.array_equal(got.reuse_hist, hist)
            assert sorted(got.first_times.tolist()) == firsts
            assert sorted(got.last_times.tolist()) == lasts

    @SET
    @given(windowed_streams())
    def test_int64_links_give_the_same_window(self, case):
        lines, lo, hi = case
        prev, nxt = line_links(lines)
        assert prev.dtype == nxt.dtype == np.int32
        wide = window_profile((prev.astype(np.int64), nxt.astype(np.int64)), lo, hi)
        narrow = window_profile((prev, nxt), lo, hi)
        assert wide.n_lines == narrow.n_lines
        assert np.array_equal(wide.reuse_hist, narrow.reuse_hist)
        assert np.array_equal(wide.first_times, narrow.first_times)
        assert np.array_equal(wide.last_times, narrow.last_times)


def argsort_links(lines):
    """Reference links: one int64 stable argsort, whatever the key range."""
    lines = np.asarray(lines, dtype=np.int64)
    n = lines.size
    prev, nxt = np.full(n, -1, dtype=np.int64), np.full(n, n, dtype=np.int64)
    order = np.argsort(lines, kind="stable")
    same = lines[order][1:] == lines[order][:-1]
    prev[order[1:][same]] = order[:-1][same]
    nxt[order[:-1][same]] = order[1:][same]
    return prev, nxt


@st.composite
def keyed_streams(draw, low, high):
    """Streams over a few distinct keys in ``[low, high]``, repeats likely."""
    pool = draw(st.lists(st.integers(low, high), min_size=1, max_size=30))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=0, max_size=300))
    return np.array([pool[i] for i in picks], dtype=np.int64)


class TestLineLinksKeyRanges:
    """``line_links`` picks its sort by key range; the links never change."""

    @SET
    @given(st.one_of(
        keyed_streams(0, 2**16 - 1),
        keyed_streams(0, 2**32 - 1),
        keyed_streams(2**16, 2**32 - 1),
        keyed_streams(2**32, 2**62),
        keyed_streams(-(2**40), 2**40),
    ))
    def test_links_equal_int64_stable_argsort(self, lines):
        prev, nxt = line_links(lines)
        want_prev, want_nxt = argsort_links(lines)
        assert np.array_equal(prev, want_prev)
        assert np.array_equal(nxt, want_nxt)
        # The sort reads the key range itself; no caller-supplied bound.
        assert np.array_equal(stable_argsort(lines), np.argsort(lines, kind="stable"))

    @pytest.mark.parametrize("dtype", [np.int32, np.uint16, np.int64])
    def test_boundary_keys(self, dtype):
        info = np.iinfo(dtype)
        edges = [0, 1, 2**16 - 1, 2**16, 2**32 - 1, 2**32, info.max]
        keys = np.array([k for k in edges if k <= info.max], dtype=dtype)
        lines = np.tile(keys, 3)[::-1]
        prev, nxt = line_links(lines)
        want_prev, want_nxt = argsort_links(lines)
        assert np.array_equal(prev, want_prev)
        assert np.array_equal(nxt, want_nxt)


class EagerProfile(NamedTuple):
    n_accesses: int
    n_lines: int
    reuse_hist: np.ndarray
    first_times: np.ndarray
    last_times: np.ndarray


def eager_profile(lines):
    """Every field of a window's profile, built up front by bookkeeping."""
    hist, firsts, lasts = naive_profile(lines)
    firsts, lasts = np.array(firsts, dtype=np.int64), np.array(lasts, dtype=np.int64)
    return EagerProfile(len(lines), len(firsts), hist, firsts, lasts)


class TestMissesMatchEagerProfile:
    @SET
    @given(windowed_streams(), st.floats(0.0, 50.0))
    def test_capacities_below_at_and_above_m(self, case, cap):
        lines, lo, hi = case
        want = eager_profile(lines[lo:hi])
        mrc = miss_ratio_curve(links=line_links(lines), lo=lo, hi=hi)
        assert mrc.profile.n_accesses == want.n_accesses
        assert mrc.profile.n_lines == want.n_lines
        for c in edge_capacities(want.n_lines) + (cap,):
            assert mrc.misses(c) == reference_misses(want, c), c

    def test_fitting_capacities_build_no_histogram(self):
        lines = np.array([3, 1, 3, 2, 1, 4, 3])
        mrc = miss_ratio_curve(links=line_links(lines), lo=1, hi=6)
        m = mrc.profile.n_lines
        assert [mrc.misses(c) for c in (m, m + 0.5, float("inf"))] == [m, m, m]
        assert not {"reuse_hist", "first_times", "last_times"} & vars(mrc.profile).keys()
        assert mrc.misses(m - 1) == reference_misses(eager_profile(lines[1:6]), m - 1)
        assert {"reuse_hist", "first_times", "last_times"} <= vars(mrc.profile).keys()

    @pytest.mark.parametrize("lo", [0, 2, 5])
    def test_empty_windows(self, lo):
        mrc = miss_ratio_curve(links=line_links(np.array([3, 1, 3, 2, 1])), lo=lo, hi=lo)
        for c in edge_capacities(0):
            assert mrc.misses(c) == 0
            assert mrc.miss_ratio(c) == 0.0


def test_miss_ratio_curve_takes_exactly_one_stream():
    lines = np.array([1, 2, 1])
    with pytest.raises(TypeError):
        miss_ratio_curve()
    with pytest.raises(TypeError):
        miss_ratio_curve(lines, links=line_links(lines))


def test_link_dtype_widens_only_past_int32():
    assert _link_dtype(0) is np.int32
    assert _link_dtype(2**31 - 1) is np.int32
    assert _link_dtype(2**31) is np.int64


# --- footprint prefix search vs the whole-curve formulation --------------------

def reference_footprint(profile):
    """Whole footprint curve: three float deficits of reversed cumsums each."""
    n, m = profile.n_accesses, profile.n_lines
    if n == 0:
        return np.zeros(1)
    w = np.arange(n + 1, dtype=np.float64)

    def deficit(hist):
        h = hist.astype(np.float64)
        count_gt = np.append(np.cumsum(h[:0:-1])[::-1], 0.0)
        weight_gt = np.append(np.cumsum((h * w)[:0:-1])[::-1], 0.0)
        return weight_gt - w * count_gt

    fp = deficit(profile.reuse_hist)
    fp += deficit(np.bincount(profile.first_times, minlength=n + 1))
    fp += deficit(np.bincount(n + 1 - profile.last_times, minlength=n + 1))
    fp /= n - w + 1.0
    fp = m - fp
    fp[0] = 0.0
    return np.maximum.accumulate(np.clip(fp, 0.0, float(m)))


def reference_misses(profile, capacity, curve=None):
    """Misses from a search of the whole clipped, running-max curve."""
    n = profile.n_accesses
    if capacity <= 0:
        return n
    if n == 0:
        return 0
    if curve is None:
        curve = reference_footprint(profile)
    idx = int(np.searchsorted(curve, capacity, side="right")) - 1
    return profile.n_lines + int(profile.reuse_hist[max(idx, 0) + 1 :].sum())


def edge_capacities(m):
    return (-1.0, 0, 0.25, 1, 1.5, m - 1, m - 0.5, m, m + 1, float("inf"))


def assert_matches_reference(mrc, capacities):
    profile = mrc.profile
    curve = reference_footprint(profile)
    assert footprint_curve(profile).values.tobytes() == curve.tobytes()
    for cap in capacities:
        assert mrc.misses(cap) == reference_misses(profile, cap, curve), cap


cyclic_streams = st.builds(
    lambda k, r: np.tile(np.arange(k), r), st.integers(1, 40), st.integers(1, 12)
)


def record_bins(monkeypatch):
    """Record the bin ranges ``(lo, top)`` the footprint prefix computes."""
    ranges, extend = [], locality._FootprintPrefix.extend

    def spy(self, top):
        ranges.append((self.reach + 1, top))
        return extend(self, top)

    monkeypatch.setattr(locality._FootprintPrefix, "extend", spy)
    return ranges


def first_exceedance(profile, capacity):
    """First ``w`` of the whole raw footprint above ``capacity``, or None."""
    over = locality._FootprintPrefix(profile).extend(profile.n_accesses) > capacity
    return int(over.argmax()) if over.any() else None


def assert_each_bin_once(ranges):
    """The recorded ranges tile ``[0, top]`` in order, with no bin twice."""
    assert [lo for lo, _top in ranges] == [0] + [top + 1 for _lo, top in ranges[:-1]]
    assert all(lo <= top for lo, top in ranges)


class TestFootprintPrefixSearch:
    @SET
    @given(st.one_of(line_streams, cyclic_streams), st.floats(0.0, 50.0))
    def test_random_streams_match_reference(self, lines, cap):
        mrc = miss_ratio_curve(lines)
        assert_matches_reference(mrc, edge_capacities(mrc.profile.n_lines) + (cap,))

    @SET
    @given(windowed_streams(), st.floats(0.0, 50.0))
    def test_windows_match_reference(self, case, cap):
        lines, lo, hi = case
        mrc = miss_ratio_curve(links=line_links(lines), lo=lo, hi=hi)
        assert_matches_reference(mrc, edge_capacities(mrc.profile.n_lines) + (cap,))

    @pytest.mark.parametrize("line_bytes", [32, 64])
    def test_every_suite_window_matches_reference(self, line_bytes):
        for entry in SUITE:
            lines = build_matrix(entry.mid, 0.02).index // (line_bytes // 8)
            links = line_links(lines)
            for ues in (1, 3, 7, 48):
                bounds = np.linspace(0, lines.size, ues + 1).astype(int)
                for lo, hi in zip(bounds[:-1], bounds[1:]):
                    mrc = miss_ratio_curve(links=links, lo=lo, hi=hi)
                    l1, l2 = 8 * 1024 / line_bytes, 128 * 1024 / line_bytes
                    caps = (l1, l2) + edge_capacities(mrc.profile.n_lines)
                    assert_matches_reference(mrc, caps)

    def test_search_computes_each_bin_once(self, monkeypatch):
        # A cycle of 5 lines, then one new line: fp(w) = 5 + 1/(n - w + 1)
        # past w = 5, which exceeds 5.5 only at w = n.  fp(n) == m exactly,
        # so 0 < C < m always finds an exceedance by top == n.
        lines = np.append(np.tile(np.arange(5), 40), 5)
        mrc = miss_ratio_curve(lines)
        n = mrc.profile.n_accesses
        assert footprint_curve(mrc.profile).values[-1] == mrc.profile.n_lines
        ranges = record_bins(monkeypatch)
        assert mrc.misses(5.5) == reference_misses(mrc.profile, 5.5)
        assert ranges == [(0, 12), (13, 24), (25, 48), (49, 96), (97, 192), (193, n)]
        # The whole window is reached: later capacities compute nothing.
        for cap in (4.5, 5.9, 5.5):
            assert mrc.misses(cap) == reference_misses(mrc.profile, cap)
        assert len(ranges) == 6

    def test_second_capacity_resumes_from_the_first(self, monkeypatch):
        # Each line read 8 times running: fp(w) ~ w / 8 + 1.
        mrc = miss_ratio_curve(np.repeat(np.arange(100), 8))
        ranges = record_bins(monkeypatch)
        assert mrc.misses(3.5) == reference_misses(mrc.profile, 3.5)
        assert ranges == [(0, 8), (9, 16), (17, 32)]
        assert mrc.misses(20.5) == reference_misses(mrc.profile, 20.5)
        assert ranges[3:] == [(33, 42), (43, 84), (85, 168)]
        assert ranges[-1][1] < mrc.profile.n_accesses
        for cap in (3.5, 20.5):
            assert mrc._prefix.first_over(cap, 2) == first_exceedance(mrc.profile, cap)

    @SET
    @given(
        windowed_streams(),
        st.lists(st.floats(0.0, 50.0), min_size=1, max_size=4),
    )
    def test_capacities_share_one_prefix(self, case, caps):
        # Whatever order the capacities come in, the window computes each
        # bin at most once, finds the exceedance the whole curve has, and
        # its chunks are bitwise the one-pass curve.
        lines, lo, hi = case
        mrc = miss_ratio_curve(links=line_links(lines), lo=lo, hi=hi)
        profile = mrc.profile
        with pytest.MonkeyPatch.context() as monkeypatch:
            ranges = record_bins(monkeypatch)
            for cap in caps:
                assert mrc.misses(cap) == reference_misses(profile, cap), cap
        for cap in caps:
            if 0 < cap < profile.n_lines:
                got = mrc._prefix.first_over(cap, 2 * (int(cap) + 1))
                assert got == first_exceedance(profile, cap), cap
        if ranges:
            assert_each_bin_once(ranges)
            whole = locality._FootprintPrefix(profile).extend(ranges[-1][1])
            assert np.concatenate(mrc._prefix.chunks).tobytes() == whole.tobytes()


class TestLocalityRejectsBadInput:
    links = line_links(np.array([3, 1, 3, 2, 1]))

    def test_window_lo_above_hi(self):
        with pytest.raises(ValueError, match="lo=4, hi=2"):
            window_profile(self.links, lo=4, hi=2)

    def test_window_lo_negative(self):
        with pytest.raises(ValueError, match="lo=-1"):
            window_profile(self.links, lo=-1, hi=2)

    def test_window_hi_past_the_stream(self):
        with pytest.raises(ValueError, match="hi=6"):
            window_profile(self.links, lo=0, hi=6)

    def test_nan_capacity(self):
        with pytest.raises(ValueError, match="capacity_lines"):
            miss_ratio_curve(links=self.links).misses(float("nan"))

    def test_infinite_capacity_is_cold_misses_only(self):
        assert miss_ratio_curve(links=self.links).misses(float("inf")) == 3
