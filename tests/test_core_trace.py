"""Tests for SpMV access-stream characterization."""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.core import SpMVExperiment, access_summary, characterize_partition
from repro.core.trace import UETrace, gather_links
from repro.machine import get_machine
from repro.scc.locality import miss_ratio_curve
from repro.scc.params import L2_BYTES
from repro.sparse import RowPartition, banded, partition_rows_balanced, random_uniform
from repro.sparse.fastpath import batch_access_summaries
from repro.sparse.suite import SUITE, build_matrix


def trace_of(a, n_ues=1, **kw):
    return characterize_partition(a, partition_rows_balanced(a, n_ues), **kw)


class TestCharacterizePartition:
    def test_one_trace_per_ue(self, small_banded):
        traces = trace_of(small_banded, 4)
        assert len(traces) == 4
        assert [t.ue for t in traces] == [0, 1, 2, 3]

    def test_nnz_and_rows_partition(self, small_banded):
        traces = trace_of(small_banded, 4)
        assert sum(t.nnz for t in traces) == small_banded.nnz
        assert sum(t.rows for t in traces) == small_banded.n_rows

    def test_stream_lines_scale_with_nnz(self, small_banded):
        [t] = trace_of(small_banded)
        # da(8B) + index(4B) per nnz plus ptr/y per row, 32B lines.
        expected = (
            8 * t.nnz // 32 + 4 * t.nnz // 32 + 4 * t.rows // 32 + 8 * t.rows // 32
        )
        assert t.stream_lines == pytest.approx(expected, rel=0.02, abs=6)

    def test_x_locality_banded_beats_random_at_l1(self):
        a = banded(3000, 8.0, 8, seed=1)
        b = random_uniform(3000, 8.0, seed=1)
        ta = trace_of(a)[0]
        tb = trace_of(b)[0]
        assert ta.x_l1_misses < tb.x_l1_misses
        # Both footprints (750 lines) fit the L2 share: only colds remain.
        assert ta.x_l2_misses <= tb.x_l2_misses

    def test_x_locality_banded_beats_random_at_l2(self):
        # Footprint must exceed the L2 x-share (4096 lines = 16k cols).
        a = banded(40_000, 8.0, 8, seed=1)
        b = random_uniform(40_000, 8.0, seed=1)
        assert trace_of(a)[0].x_l2_misses < trace_of(b)[0].x_l2_misses

    def test_x_distinct_lines_bounded_by_columns(self, small_random):
        [t] = trace_of(small_random)
        assert t.x_distinct_lines <= (small_random.n_cols * 8) // 32 + 1

    def test_ws_bytes_accounting(self, small_banded):
        [t] = trace_of(small_banded)
        assert t.ws_bytes >= 12 * t.nnz
        assert t.ws_bytes >= t.x_distinct_lines * 32

    def test_more_ues_shrink_per_ue_ws(self, small_banded):
        t1 = trace_of(small_banded, 1)[0]
        t4 = max(trace_of(small_banded, 4), key=lambda t: t.ws_bytes)
        assert t4.ws_bytes < t1.ws_bytes

    def test_x_capacity_fraction_validated(self, small_banded):
        with pytest.raises(ValueError):
            trace_of(small_banded, 1, x_capacity_fraction=0.0)
        with pytest.raises(ValueError):
            trace_of(small_banded, 1, x_capacity_fraction=1.5)

    def test_larger_x_fraction_fewer_misses(self, small_random):
        few = trace_of(small_random, 1, x_capacity_fraction=0.9)[0]
        many = trace_of(small_random, 1, x_capacity_fraction=0.1)[0]
        assert few.x_l2_misses <= many.x_l2_misses

    def test_empty_ue_block(self):
        """A UE that receives zero rows produces a zero trace."""
        a = banded(64, 4.0, 4, seed=2)
        traces = characterize_partition(a, partition_rows_balanced(a, 64))
        empties = [t for t in traces if t.nnz == 0]
        for t in empties:
            assert t.x_l1_misses == 0 and t.stream_lines <= 2


def make_trace(**kw):
    defaults = dict(
        ue=0, nnz=10_000, rows=1_000, stream_lines=4_000, distinct_lines=5_000,
        x_l1_misses=2_000.0, x_l2_misses=500.0, x_distinct_lines=1_000,
        ws_bytes=100 * 1024,
    )
    defaults.update(kw)
    return UETrace(**defaults)


class TestAccessSummary:
    def test_resident_regime_cold_misses_once(self):
        t = make_trace(ws_bytes=L2_BYTES // 2)
        s = access_summary(t, iterations=10)
        assert s.l2_misses == t.distinct_lines  # cold only
        per_iter_l1 = t.stream_lines + t.x_l1_misses
        assert s.l2_hits == pytest.approx(per_iter_l1 * 10 - t.distinct_lines)

    def test_streaming_regime_misses_every_iteration(self):
        t = make_trace(ws_bytes=4 * L2_BYTES)
        s = access_summary(t, iterations=10)
        assert s.l2_misses == pytest.approx((t.stream_lines + t.x_l2_misses) * 10)
        assert s.l2_hits == pytest.approx((t.x_l1_misses - t.x_l2_misses) * 10)

    def test_l2_disabled_regime(self):
        t = make_trace(ws_bytes=L2_BYTES // 2)  # would fit, but L2 is off
        s = access_summary(t, iterations=5, l2_enabled=False)
        assert s.l2_hits == 0
        assert s.l2_misses == pytest.approx((t.stream_lines + t.x_l1_misses) * 5)

    def test_no_x_miss_removes_gather_misses(self):
        t = make_trace(ws_bytes=4 * L2_BYTES)
        s = access_summary(t, iterations=2, no_x_miss=True)
        assert s.l2_misses == pytest.approx(t.stream_lines * 2)
        assert s.l2_hits == 0.0

    def test_no_x_miss_in_resident_regime(self):
        t = make_trace(ws_bytes=L2_BYTES // 2)
        s = access_summary(t, iterations=3, no_x_miss=True)
        assert s.l2_misses == t.stream_lines  # x colds gone too

    def test_iterations_validated(self):
        with pytest.raises(ValueError):
            access_summary(make_trace(), iterations=0)

    def test_flops_follow_iterations(self):
        s = access_summary(make_trace(), iterations=7)
        assert s.flops == 2 * 10_000 * 7

    def test_boundary_exactly_at_l2(self):
        t = make_trace(ws_bytes=L2_BYTES)
        s = access_summary(t, iterations=2)
        # <= L2 counts as resident.
        assert s.l2_misses == t.distinct_lines


# --- bitwise pins of the three-regime fold ------------------------------------

#: Table I ids of six pattern families: banded, block, dense rows,
#: power law, random, short random rows.
FOLD_MATRICES = (7, 12, 5, 13, 14, 25)
FOLD_UES = (1, 5, 24, 48)
FOLD_ITERATIONS = (1, 4, 100)
#: sha256 over every UE's ``float.hex`` l2_hits/l2_misses of the grid
#: below, captured from the per-element fold before it became a view
#: of the batched one.
FOLD_DIGEST = "edaeca95bda308ed50bfdfec319c86c0a0e9d033ac928341e8402b14af0a3bbe"
#: (ws_bytes, l2_enabled) -> (l2_hits, l2_misses) of ``make_trace`` at
#: 3 iterations, on and one byte past the L2 boundary.
BOUNDARY_PINS = {
    (L2_BYTES, True): ("0x1.9640000000000p+13", "0x1.3880000000000p+12"),
    (L2_BYTES, False): ("0x0.0p+0", "0x1.1940000000000p+14"),
    (L2_BYTES + 1, True): ("0x1.1940000000000p+12", "0x1.a5e0000000000p+13"),
    (L2_BYTES + 1, False): ("0x0.0p+0", "0x1.1940000000000p+14"),
}


@pytest.fixture(scope="module")
def fold_experiments():
    return [SpMVExperiment(build_matrix(mid, 0.1)) for mid in FOLD_MATRICES]


def _fold_grid(experiments):
    """(traces, batched traces, l2_enabled, no_x_miss, iterations) per case."""
    for exp in experiments:
        for n in FOLD_UES:
            for l2_enabled in (True, False):
                for no_x_miss in (False, True):
                    for iterations in FOLD_ITERATIONS:
                        yield exp.traces(n), exp.batched_traces(n), l2_enabled, no_x_miss, iterations


def _digest(pairs):
    h = hashlib.sha256()
    for hits, misses in pairs:
        h.update(f"{float(hits).hex()} {float(misses).hex()}\n".encode())
    return h.hexdigest()


class TestFoldPins:
    """The fold's totals, bit for bit, through both of its entry points."""

    def test_grid_spans_both_l2_regimes(self, fold_experiments):
        ws = [t.ws_bytes for exp in fold_experiments for n in FOLD_UES for t in exp.traces(n)]
        assert sum(w <= L2_BYTES for w in ws) > 0
        assert sum(w > L2_BYTES for w in ws) > 0

    def test_per_trace_view_digest(self, fold_experiments):
        pairs = []
        for traces, _, l2_enabled, no_x_miss, iterations in _fold_grid(fold_experiments):
            for t in traces:
                s = access_summary(t, iterations, l2_enabled=l2_enabled, no_x_miss=no_x_miss)
                pairs.append((s.l2_hits, s.l2_misses))
        assert _digest(pairs) == FOLD_DIGEST

    def test_batched_fold_digest(self, fold_experiments):
        pairs = []
        for _, batch, l2_enabled, no_x_miss, iterations in _fold_grid(fold_experiments):
            s = batch_access_summaries(batch, iterations, l2_enabled=l2_enabled, no_x_miss=no_x_miss)
            pairs.extend(zip(s.l2_hits.tolist(), s.l2_misses.tolist()))
        assert _digest(pairs) == FOLD_DIGEST

    @pytest.mark.parametrize("ws_bytes,l2_enabled", sorted(BOUNDARY_PINS))
    def test_l2_boundary(self, ws_bytes, l2_enabled):
        s = access_summary(make_trace(ws_bytes=ws_bytes), iterations=3, l2_enabled=l2_enabled)
        got = (float(s.l2_hits).hex(), float(s.l2_misses).hex())
        assert got == BOUNDARY_PINS[(ws_bytes, l2_enabled)]


# --- every UETrace of the suite, bit for bit ------------------------------------

TRACE_CORE_COUNTS = (1, 2, 4, 8, 12, 16, 24, 32, 40, 48)
#: sha256 over every field of every ``UETrace`` (``float.hex`` for the
#: floats) of the 32 suite matrices at scale 0.02 x ``TRACE_CORE_COUNTS``,
#: captured before the window profile became lazy and the link sort
#: radix-sorted.
UETRACE_DIGEST = "3e9459a2c3fc0b0fffaa975fbaa68bbfcf06b33f3b87c7f6fb35e90960ee205a"


def test_suite_uetrace_digest(suite_small):
    h = hashlib.sha256()
    for _, a in suite_small:
        links = gather_links(a)
        for n in TRACE_CORE_COUNTS:
            for t in characterize_partition(a, partition_rows_balanced(a, n), links=links):
                fields = (v.hex() if isinstance(v, float) else str(v) for v in dataclasses.astuple(t))
                h.update((" ".join(fields) + "\n").encode())
    assert h.hexdigest() == UETRACE_DIGEST


# --- shared gather links vs the per-slice formulation -------------------------

#: core counts spanning 1..48: powers of two, the paper's 24/48, and
#: odd counts whose UE boundaries fall elsewhere.
DIFF_CORE_COUNTS = (1, 2, 3, 5, 8, 13, 24, 31, 47, 48)


def per_slice_traces(a, partition, cache, x_capacity_fraction=0.5):
    """The per-slice formulation: one locality model per UE's own gather.

    Every UE sorts its own ``x`` line stream from scratch — the
    reference the shared-links path must reproduce bit for bit.
    """
    line_bytes = cache.line_bytes
    x_l1_capacity = cache.l1_bytes * x_capacity_fraction / line_bytes
    x_l2_capacity = cache.l2_bytes * x_capacity_fraction / line_bytes
    dpl = line_bytes // 8

    def lines(nbytes):
        return nbytes // line_bytes + 1 if nbytes else 0

    out = []
    for ue, (r0, r1) in enumerate(partition.ranges()):
        lo, hi = int(a.ptr[r0]), int(a.ptr[r1])
        nnz_u, rows_u = hi - lo, r1 - r0
        stream = lines(8 * nnz_u) + lines(4 * nnz_u) + lines(4 * rows_u) + lines(8 * rows_u)
        if nnz_u:
            mrc = miss_ratio_curve(a.index[lo:hi] // dpl)
            x_distinct = mrc.profile.n_lines
            x_l1 = float(mrc.misses(x_l1_capacity))
            x_l2 = float(mrc.misses(x_l2_capacity))
        else:
            x_distinct, x_l1, x_l2 = 0, 0.0, 0.0
        out.append(UETrace(
            ue=ue, nnz=nnz_u, rows=rows_u, stream_lines=stream,
            distinct_lines=stream + x_distinct, x_l1_misses=x_l1, x_l2_misses=x_l2,
            x_distinct_lines=x_distinct,
            ws_bytes=12 * nnz_u + 12 * rows_u + 4 + x_distinct * line_bytes,
        ))
    return out


@pytest.fixture(scope="module")
def suite_small():
    return [(e.mid, build_matrix(e.mid, 0.02)) for e in SUITE]


class TestSharedLinksMatchPerSlice:
    """``characterize_partition(..., links=shared)`` == the per-slice model."""

    @pytest.mark.parametrize("machine_id", ["scc-48", "xeonphi-61"])
    @pytest.mark.parametrize("partitioner", ["balanced", "uniform"])
    def test_every_suite_matrix(self, suite_small, machine_id, partitioner):
        cache = get_machine(machine_id).cache
        for mid, a in suite_small:
            # The experiment sorts the gather once and shares the links
            # across every core count.
            exp = SpMVExperiment(a, machine=machine_id, partitioner=partitioner)
            for n in DIFF_CORE_COUNTS:
                if n > a.n_rows:
                    continue
                got = exp.traces(n)
                assert got == per_slice_traces(a, exp.partition(n), cache), (mid, n)

    def test_explicit_links_and_empty_ue(self):
        a = banded(200, 6.0, 5, seed=3)
        cache = get_machine("scc-48").cache
        links = gather_links(a, cache.line_bytes)
        # UE 0 and UE 3 get no rows; UE 2 gets a single row.
        part = RowPartition(a.n_rows, (0, 0, 90, 91, 91, a.n_rows))
        got = characterize_partition(a, part, links=links)
        assert got == per_slice_traces(a, part, cache)
        assert got[0].nnz == 0 and got[3].nnz == 0
        assert got == characterize_partition(a, part)  # links built inside
