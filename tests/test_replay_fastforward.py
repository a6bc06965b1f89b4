"""The replay's iteration-cycle fast-forward against simulating every pass.

``replay_trace(engine="vectorized")`` stops simulating once the
hierarchy's state after a pass is an automorphic image (under the
pseudo-LRU tree's symmetries) of its state after an earlier pass, and
sums the remaining passes from recorded deltas.  The reference here
simulates every pass through one compiled L1 schedule, so the counts,
the per-level stats and the final state of a supplied hierarchy must
all match it exactly, at every suite matrix.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs.tracer import Tracer
from repro.scc import CacheHierarchy
from repro.scc.params import CACHE_LINE_BYTES
from repro.scc.tracegen import TraceCounts, replay_trace, spmv_address_trace
from repro.scc.vecreplay import VectorCacheHierarchy, compile_schedule, fingerprints_equal
from repro.sparse.suite import SUITE, build_matrix

ITERATIONS = (2, 3, 7, 16, 17)
SCALE = 0.02


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    """Every suite matrix at ``SCALE``, built in a store of its own."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("repro-cache")))
        return {e.mid: build_matrix(e.mid, SCALE) for e in SUITE}


def _stats(h):
    return tuple(
        (lv.stats.hits, lv.stats.misses, lv.stats.evictions, lv.stats.writebacks)
        for lv in h.levels
    )


def _every_pass(a, no_x_miss, l2_enabled):
    """{iterations: (counts, stats, state)} from simulating every pass."""
    addrs, writes = spmv_address_trace(a, no_x_miss=no_x_miss)
    lines = addrs // CACHE_LINE_BYTES
    h = VectorCacheHierarchy(l2_enabled=l2_enabled)
    sched = compile_schedule(lines, writes, h.l1.n_sets)
    totals = {"l1": 0, "l2": 0, "mem": 0}
    out = {}
    for k in range(1, max(ITERATIONS) + 1):
        for key, n in h.access_lines(lines, writes, l1_schedule=sched).items():
            totals[key] += n
        if k in ITERATIONS:
            counts = TraceCounts(totals["l1"], totals["l2"], totals["mem"])
            out[k] = (counts, _stats(h), h.state_fingerprint())
    return out


# Every matrix runs the plain kernel with the L2 on; the other three
# variants take every fourth matrix each (skipping matrix 2, the
# slowest), so the module stays fast.
GRID = [(e.mid, False, True) for e in SUITE] + [
    (e.mid, no_x_miss, l2_enabled)
    for first, no_x_miss, l2_enabled in [(0, False, False), (2, True, True), (3, True, False)]
    for e in SUITE[first::4]
]


@pytest.mark.parametrize("mid,no_x_miss,l2_enabled", GRID)
def test_fast_forward_matches_every_pass(suite, mid, no_x_miss, l2_enabled):
    a = suite[mid]
    reference = _every_pass(a, no_x_miss, l2_enabled)
    for iterations in ITERATIONS:
        h = VectorCacheHierarchy(l2_enabled=l2_enabled)
        tracer = Tracer()
        counts = replay_trace(
            a, iterations=iterations, no_x_miss=no_x_miss, l2_enabled=l2_enabled,
            hierarchy=h, engine="vectorized", tracer=tracer,
        )
        ref_counts, ref_stats, ref_state = reference[iterations]
        assert counts == ref_counts, iterations
        assert _stats(h) == ref_stats, iterations
        assert fingerprints_equal(h.state_fingerprint(), ref_state), iterations
        if iterations == 16 and not no_x_miss and l2_enabled:
            # Modulo the tree symmetries every suite matrix's state
            # repeats at pass 1 -> 2 or 2 -> 3; exact equality needed
            # 5 or 6 passes.
            assert tracer.metrics.counter("replay.simulated_iterations").value <= 3, mid


def _scalar_fingerprint(c):
    plru = np.array([t.bits for t in c._plru], dtype=np.int64)
    return (c._tags.copy(), c._dirty.copy(), plru)


@pytest.mark.parametrize("mid", [10, 24, 32])
@pytest.mark.parametrize("iterations", [7, 16])
def test_supplied_hierarchy_ends_in_the_scalar_state(suite, mid, iterations):
    # A fast-forwarded replay must leave a caller's hierarchy in the
    # state after `iterations` passes, not after the simulated ones.
    a = suite[mid]
    scalar, vec = CacheHierarchy(), VectorCacheHierarchy()
    cold = replay_trace(a, iterations=iterations, hierarchy=scalar)
    assert replay_trace(a, iterations=iterations, hierarchy=vec, engine="vectorized") == cold
    assert fingerprints_equal(
        _scalar_fingerprint(scalar.l1) + _scalar_fingerprint(scalar.l2),
        vec.state_fingerprint(),
    )
    warm = replay_trace(a, iterations=2, hierarchy=scalar)
    assert replay_trace(a, iterations=2, hierarchy=vec, engine="vectorized") == warm
