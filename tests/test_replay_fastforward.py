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


# -- one validate_exact pass, pinned ---------------------------------------

#: mid -> (replay.steps, replay.simulated_iterations, replay.tail_accesses,
#: counts) of a cold 16-iteration replay at ``SCALE``.
REPLAY_PINS = {
    1: (1348, 2, 4740, TraceCounts(5891664, 48992, 854800)),
    2: (5202, 2, 11652, TraceCounts(19816192, 50432, 2893296)),
    3: (1260, 2, 4176, TraceCounts(6224289, 47935, 907184)),
    4: (966, 3, 3828, TraceCounts(2728720, 21189, 394235)),
    5: (1200, 3, 1517, TraceCounts(2618923, 145, 374308)),
    6: (240, 3, 858, TraceCounts(535192, 73410, 4838)),
    7: (434, 2, 1196, TraceCounts(1883168, 592, 273072)),
    8: (414, 2, 1253, TraceCounts(1833025, 655, 266752)),
    9: (504, 3, 1714, TraceCounts(1452667, 11746, 208963)),
    10: (120, 3, 867, TraceCounts(267629, 36378, 2425)),
    11: (393, 3, 1659, TraceCounts(1169216, 37367, 132569)),
    12: (387, 3, 1395, TraceCounts(1202143, 36877, 143284)),
    13: (618, 3, 4287, TraceCounts(944545, 99409, 57070)),
    14: (868, 3, 1008, TraceCounts(1294209, 42295, 177848)),
    15: (834, 3, 1166, TraceCounts(996362, 118840, 84702)),
    16: (391, 3, 513, TraceCounts(782301, 104388, 7119)),
    17: (261, 3, 717, TraceCounts(776768, 97628, 15476)),
    18: (160, 2, 758, TraceCounts(579581, 80684, 5255)),
    19: (158, 2, 622, TraceCounts(692848, 97021, 6307)),
    20: (112, 2, 338, TraceCounts(412000, 56280, 3752)),
    21: (219, 3, 562, TraceCounts(397802, 53025, 3589)),
    22: (96, 2, 226, TraceCounts(368720, 50910, 3394)),
    23: (30, 2, 826, TraceCounts(163288, 21765, 1475)),
    24: (52, 3, 177, TraceCounts(102170, 13244, 1034)),
    25: (225, 3, 282, TraceCounts(325641, 53869, 3242)),
    26: (118, 3, 672, TraceCounts(248289, 33271, 2312)),
    27: (115, 3, 357, TraceCounts(196901, 25982, 1805)),
    28: (74, 2, 174, TraceCounts(252864, 35056, 2336)),
    29: (68, 2, 130, TraceCounts(258752, 36690, 2446)),
    30: (69, 3, 741, TraceCounts(176602, 24012, 1610)),
    31: (62, 2, 120, TraceCounts(204944, 29085, 1939)),
    32: (75, 3, 610, TraceCounts(140957, 18530, 1313)),
}


def test_replay_counters_per_matrix(suite):
    for mid, (steps, simulated, tail, counts) in REPLAY_PINS.items():
        tracer = Tracer()
        got = replay_trace(
            suite[mid], iterations=16, engine="vectorized", use_disk_cache=False, tracer=tracer
        )
        m = tracer.metrics
        assert got == counts, mid
        assert m.counter("replay.steps").value == steps, mid
        assert m.counter("replay.simulated_iterations").value == simulated, mid
        assert m.counter("replay.tail_accesses").value == tail, mid

