"""Differential property suite for the set-parallel vectorized replay.

The scalar simulator (:mod:`repro.scc.cache`) is the oracle; every test
here enforces the bitwise contract of :mod:`repro.scc.vecreplay`:
identical hit/miss/eviction/writeback counts at every level *and*
identical final state (tags, dirty bits, pseudo-LRU trees) for the same
access stream.  The tail-width sweep pins all three execution paths —
pure vector, mixed vector+tail, pure scalar tail — at every supported
associativity, and every row of the step table is checked against one
scalar access.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.scc.cache import Cache, CacheHierarchy
from repro.scc.vecreplay import (
    MAX_ASSOC,
    TAIL_WIDTH,
    VectorCache,
    VectorCacheHierarchy,
    _plru_tables,
    _step_table,
    compile_schedule,
    fingerprints_equal,
)

#: tail-width settings covering pure-vector (0), mixed, default and
#: pure-scalar-tail (huge) execution.
TAIL_SWEEP = (0, 4, TAIL_WIDTH, 10**9)

#: every associativity the vectorized engine accepts.
ASSOCS = (1, 2, 4, 8)


def _stream(rng, n, n_lines, write_frac=0.3):
    """A random (addrs, writes) pair over ``n_lines`` distinct lines."""
    addrs = rng.integers(0, n_lines, size=n) * 32
    writes = rng.random(n) < write_frac
    return addrs, writes


def _scalar_stats(c):
    return (c.stats.hits, c.stats.misses, c.stats.evictions, c.stats.writebacks)


def _scalar_fingerprint(c: Cache):
    """(tags, dirty, plru) of the scalar cache, in the vector layout."""
    plru = np.array([t.bits for t in c._plru], dtype=np.int64)
    return (c._tags.copy(), c._dirty.copy(), plru)


def _run_both(addrs, writes, passes=1, size=1024, tail_width=TAIL_WIDTH, assoc=4):
    scalar = Cache(size_bytes=size, assoc=assoc, name="s")
    vec = VectorCache(size_bytes=size, assoc=assoc, name="v")
    vec.tail_width = tail_width
    for _ in range(passes):
        for a, w in zip(addrs.tolist(), writes.tolist()):
            scalar.access(int(a), write=bool(w))
        vec.access_trace(addrs, writes)
    return scalar, vec


class TestScheduleCompilation:
    def test_empty_stream(self):
        sched = compile_schedule(np.empty(0, dtype=np.int64), None, 32)
        assert sched.n_accesses == sched.n_kept == sched.n_steps == 0
        assert sched.bounds.tolist() == [0]

    def test_adjacent_duplicates_collapse_with_write_or(self):
        # line 5 accessed thrice in a row (read, write, read): one kept
        # access with the write flag OR-ed in.
        lines = np.array([5, 5, 5, 7], dtype=np.int64)
        writes = np.array([False, True, False, False])
        sched = compile_schedule(lines, writes, 32)
        assert sched.collapsed == 2
        assert sched.n_kept == 2
        kept_writes = {int(l): bool(w) for l, w in zip(sched.lines, sched.writes)}
        assert kept_writes == {5: True, 7: False}

    def test_step_major_invariants(self):
        rng = np.random.default_rng(3)
        lines = rng.integers(0, 200, size=1500).astype(np.int64)
        writes = rng.random(1500) < 0.5
        n_sets = 16
        sched = compile_schedule(lines, writes, n_sets)
        widths = np.diff(sched.bounds)
        # Step widths are non-increasing (the tail cutover relies on it)
        # and every step touches each set at most once.
        assert (widths[1:] <= widths[:-1]).all()
        assert sched.bounds[-1] == sched.n_kept
        for k in range(sched.n_steps):
            s = sched.sets[sched.bounds[k] : sched.bounds[k + 1]]
            assert np.unique(s).size == s.size
        # `orig` is a permutation into the raw stream and each kept
        # access carries its own line/set.
        assert np.unique(sched.orig).size == sched.n_kept
        np.testing.assert_array_equal(lines[sched.orig], sched.lines)
        np.testing.assert_array_equal(lines[sched.orig] % n_sets, sched.sets)

    def test_per_set_program_order_preserved(self):
        # Walking steps in order must visit each set's accesses in
        # program order (after collapse) — the correctness core of the
        # lockstep transform.
        rng = np.random.default_rng(4)
        lines = rng.integers(0, 100, size=800).astype(np.int64)
        sched = compile_schedule(lines, None, 8)
        for s in range(8):
            positions = sched.orig[sched.sets == s]
            assert (np.diff(positions) > 0).all()


class TestSingleLevelDifferential:
    @pytest.mark.parametrize("tail_width", TAIL_SWEEP)
    def test_random_stream_counts_and_state(self, tail_width):
        rng = np.random.default_rng(17)
        addrs, writes = _stream(rng, 2000, 120)
        scalar, vec = _run_both(addrs, writes, tail_width=tail_width)
        assert _scalar_stats(scalar) == _scalar_stats(vec)
        assert fingerprints_equal(
            _scalar_fingerprint(scalar), vec.state_fingerprint()
        )

    def test_multi_pass_runs_fill_and_victim_transitions(self):
        # Pass 1 fills the cache; passes 2-3 only hit or evict.  Both
        # kinds of step-table row must stay bitwise identical.
        rng = np.random.default_rng(23)
        addrs, writes = _stream(rng, 1800, 90)
        scalar, vec = _run_both(addrs, writes, passes=1, tail_width=0)
        assert (vec._tags != -1).all()  # pass 1 filled every way
        assert _scalar_stats(scalar) == _scalar_stats(vec)
        scalar, vec = _run_both(addrs, writes, passes=3, tail_width=0)
        assert vec.stats.evictions > 0  # victims were taken
        assert _scalar_stats(scalar) == _scalar_stats(vec)
        assert fingerprints_equal(
            _scalar_fingerprint(scalar), vec.state_fingerprint()
        )

    @pytest.mark.parametrize("tail_width", TAIL_SWEEP)
    @pytest.mark.parametrize("ways", ASSOCS)
    def test_multi_pass_random_stream_every_assoc(self, ways, tail_width):
        # 16 sets, 3x as many lines as ways: fills, hits, clean and
        # dirty evictions at every associativity, on every path.
        rng = np.random.default_rng(60 + ways)
        n_sets = 16
        addrs, writes = _stream(rng, 1500, 3 * ways * n_sets)
        scalar, vec = _run_both(
            addrs, writes, passes=3, size=n_sets * ways * 32,
            tail_width=tail_width, assoc=ways,
        )
        assert vec.stats.evictions > 0 and vec.stats.writebacks > 0
        assert _scalar_stats(scalar) == _scalar_stats(vec)
        assert fingerprints_equal(
            _scalar_fingerprint(scalar), vec.state_fingerprint()
        )

    def test_pathological_single_set_stream(self):
        # Every access lands in one set: schedule degenerates to one
        # access per step (pure tail / pure sequential vector).
        rng = np.random.default_rng(29)
        n_sets = 8
        lines = (rng.integers(0, 40, size=400) * n_sets + 3).astype(np.int64)
        for tw in (0, 10**9):
            scalar = Cache(size_bytes=n_sets * 4 * 32, name="s")
            vec = VectorCache(size_bytes=n_sets * 4 * 32, name="v")
            vec.tail_width = tw
            for l in lines.tolist():
                scalar.access(int(l) * 32)
            vec.access_trace(lines * 32)
            assert _scalar_stats(scalar) == _scalar_stats(vec)

    def test_reads_only_stream(self):
        rng = np.random.default_rng(31)
        addrs = rng.integers(0, 300, size=1000) * 32
        scalar = Cache(size_bytes=2048, name="s")
        vec = VectorCache(size_bytes=2048, name="v")
        for a in addrs.tolist():
            scalar.access(int(a))
        vec.access_trace(addrs)
        assert _scalar_stats(scalar) == _scalar_stats(vec)
        assert scalar.stats.writebacks == 0


class TestHierarchyDifferential:
    @pytest.mark.parametrize("l2_enabled", [True, False])
    def test_multi_pass_hierarchy(self, l2_enabled):
        rng = np.random.default_rng(37)
        addrs, writes = _stream(rng, 2500, 500)
        scalar = CacheHierarchy(l1_bytes=2048, l2_bytes=8192, l2_enabled=l2_enabled)
        vec = VectorCacheHierarchy(l1_bytes=2048, l2_bytes=8192, l2_enabled=l2_enabled)
        for _ in range(3):
            for a, w in zip(addrs.tolist(), writes.tolist()):
                scalar.access(int(a), write=bool(w))
            vec.access_trace(addrs, writes)
        assert _scalar_stats(scalar.l1) == _scalar_stats(vec.l1)
        if l2_enabled:
            assert _scalar_stats(scalar.l2) == _scalar_stats(vec.l2)
            assert fingerprints_equal(
                _scalar_fingerprint(scalar.l1) + _scalar_fingerprint(scalar.l2),
                vec.state_fingerprint(),
            )

    def test_alternating_l1_schedules_match_scalar(self):
        # Passes over two streams, each with its own precompiled L1
        # schedule, on one hierarchy.
        rng = np.random.default_rng(43)
        streams = [_stream(rng, 1500, 90), _stream(rng, 1500, 300)]
        scalar = CacheHierarchy(l1_bytes=1024, l2_bytes=4096)
        vec = VectorCacheHierarchy(l1_bytes=1024, l2_bytes=4096)
        scheds = [compile_schedule(a // 32, w, vec.l1.n_sets) for a, w in streams]
        for k in [0, 0, 0, 1, 1, 0, 1, 1, 1, 0]:
            addrs, writes = streams[k]
            before = [_scalar_stats(lv) for lv in (scalar.l1, scalar.l2)]
            for a, w in zip(addrs.tolist(), writes.tolist()):
                scalar.access(int(a), write=bool(w))
            after = [_scalar_stats(lv) for lv in (scalar.l1, scalar.l2)]
            counts = vec.access_lines(addrs // 32, writes, l1_schedule=scheds[k])
            l1_hits, l2_hits = after[0][0] - before[0][0], after[1][0] - before[1][0]
            assert (counts["l1"], counts["l2"]) == (l1_hits, l2_hits)
        assert _scalar_stats(scalar.l2) == _scalar_stats(vec.l2)
        assert fingerprints_equal(
            _scalar_fingerprint(scalar.l1) + _scalar_fingerprint(scalar.l2),
            vec.state_fingerprint(),
        )

    def test_level_counts_sum_to_accesses(self):
        rng = np.random.default_rng(41)
        addrs, writes = _stream(rng, 1200, 400)
        vec = VectorCacheHierarchy(l1_bytes=1024, l2_bytes=4096)
        counts = vec.access_trace(addrs, writes)
        assert counts["l1"] + counts["l2"] + counts["mem"] == addrs.size


class TestVectorCacheAPI:
    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            VectorCache(size_bytes=0)
        with pytest.raises(ValueError):
            VectorCache(size_bytes=1000, assoc=3, line_bytes=32)
        with pytest.raises(ValueError, match="up to 8 ways"):
            VectorCache(size_bytes=2 * MAX_ASSOC * 32, assoc=2 * MAX_ASSOC)

    def test_schedule_for_other_ways_is_rejected(self):
        vec = VectorCache(size_bytes=1024, assoc=2)
        sched = compile_schedule(np.arange(4), None, vec.n_sets, assoc=4)
        with pytest.raises(ValueError, match="4 ways"):
            vec.replay_schedule(sched)

    def test_invalid_way_before_a_valid_one_is_rejected(self):
        # Replay fills the first invalid way and only flush()
        # invalidates, so the valid ways of a set are always a prefix.
        vec = VectorCache(size_bytes=1024)
        vec._tags[0, 1] = vec.n_sets
        with pytest.raises(ValueError, match="must follow"):
            vec.access_trace(np.array([0]))

    def test_writes_shape_mismatch(self):
        vec = VectorCache(size_bytes=1024)
        with pytest.raises(ValueError):
            vec.access_trace(np.array([0, 32]), writes=np.array([True]))
        hier = VectorCacheHierarchy(l1_bytes=128, l2_bytes=512)
        with pytest.raises(ValueError):
            hier.access_trace(np.array([0, 32]), writes=np.array([True]))

    def test_empty_trace_is_a_noop(self):
        vec = VectorCache(size_bytes=1024)
        assert vec.access_trace(np.empty(0, dtype=np.int64)) == 0
        assert _scalar_stats(vec) == (0, 0, 0, 0)

    def test_flush_writes_back_and_empties_the_cache(self):
        vec = VectorCache(size_bytes=128)  # 1 set, 4 ways
        vec.access_trace(np.arange(4) * 32 * vec.n_sets,
                         np.array([True, True, False, False]))
        for _ in range(2):  # hits on a full set
            vec.access_trace(np.arange(4) * 32 * vec.n_sets)
        assert (vec._tags != -1).all()
        assert vec.flush() == 2  # two dirty lines written back
        assert (vec._tags == -1).all() and not vec._dirty.any()
        assert not vec.contains_line(0)
        # The emptied set fills again from way 0.
        vec.access_trace(np.array([32 * 5]), np.array([True]))
        assert vec._tags[0].tolist() == [5, -1, -1, -1]
        assert vec._dirty[0].tolist() == [True, False, False, False]

    def test_contains_line(self):
        vec = VectorCache(size_bytes=1024)
        vec.access_trace(np.array([96]))
        assert vec.contains_line(3)
        assert not vec.contains_line(4)

    def test_replay_counters_accumulate(self):
        rng = np.random.default_rng(43)
        addrs, writes = _stream(rng, 600, 80)
        vec = VectorCacheHierarchy(l1_bytes=1024, l2_bytes=4096)
        vec.access_trace(addrs, writes)
        assert vec.steps_run > 0
        assert vec.collapsed_hits >= 0
        assert vec.tail_accesses >= 0


class TestFingerprints:
    def test_equal_and_unequal(self):
        a = VectorCache(size_bytes=1024)
        b = VectorCache(size_bytes=1024)
        assert fingerprints_equal(a.state_fingerprint(), b.state_fingerprint())
        a.access_trace(np.array([0]))
        assert not fingerprints_equal(a.state_fingerprint(), b.state_fingerprint())

    def test_fingerprint_is_a_copy(self):
        vec = VectorCache(size_bytes=1024)
        fp = vec.state_fingerprint()
        vec.access_trace(np.array([0]))
        assert not fingerprints_equal(fp, vec.state_fingerprint())


# -- the step table ------------------------------------------------------------


def _step_rows(ways, rng):
    """(fill, dirty, tree bits, code, write) of step-table rows to check.

    Every reachable row up to 4 ways.  At 8 ways (~1 M rows, ~7 s
    through the scalar cache) every fill, tree state, code and write
    flag, with dirty masks none, all and two random ones: a step reads
    one way's dirty bit and passes the others through, so these cover
    both values of the bit it reads and of those it passes.
    """
    for fill in range(ways + 1):
        masks = range(1 << fill)
        if ways == MAX_ASSOC:
            masks = sorted({0, (1 << fill) - 1, *rng.integers(1 << fill, size=2).tolist()})
        for dirty in masks:
            for bits in range(0, 1 << ways, 2):
                for code in range(fill + 1):
                    for write in (0, 1):
                        yield fill, dirty, bits, code, write


def _encode(ways, fill, dirty, bits):
    """A set's step-table state, as :class:`_StepTable` documents it."""
    return ((((1 << fill) | dirty) << (ways - 1)) | (bits >> 1)) * 2 * (ways + 1)


class TestStepTable:
    @pytest.mark.parametrize("ways", ASSOCS)
    def test_every_row_is_one_scalar_access(self, ways):
        t = _step_table(ways)
        nxt, way_of, miss, evict, wb = (col.tolist() for col in t[:5])
        scalar = Cache(size_bytes=ways * 32, assoc=ways)  # one set
        tags, dirty_row, tree = scalar._tags[0], scalar._dirty[0], scalar._plru[0]
        lines = list(range(1, ways + 1))
        n_rows = 0
        for fill, dirty, bits, code, write in _step_rows(ways, np.random.default_rng(ways)):
            tags[:] = lines[:fill] + [-1] * (ways - fill)
            dirty_row[:] = [(dirty >> w) & 1 for w in range(ways)]
            tree.bits = bits
            scalar.stats.reset()
            line = lines[code - 1] if code else 0  # code 0: a line not present
            hit = scalar.access_line(line, bool(write))
            i = _encode(ways, fill, dirty, bits) + 2 * code + write
            new_fill = int((tags != -1).sum())
            new_dirty = sum(1 << w for w in range(ways) if dirty_row[w])
            assert (miss[i], evict[i], wb[i]) == (
                not hit, scalar.stats.evictions == 1, scalar.stats.writebacks == 1
            ), (fill, dirty, bits, code, write)
            assert tags[way_of[i]] == line
            assert nxt[i] == _encode(ways, new_fill, new_dirty, tree.bits)
            n_rows += 1
        if ways < MAX_ASSOC:  # all of them: 2**(w-1) trees x sum (f+1) 2**f x 2
            assert n_rows == (1 << (ways - 1)) * sum((f + 1) << f for f in range(ways + 1)) * 2

    @pytest.mark.parametrize("ways", ASSOCS)
    def test_narrow_dtypes(self, ways):
        t = _step_table(ways)
        assert t.next.size == (2 << ways) * (1 << (ways - 1)) * t.cols
        assert t.next.dtype == np.min_scalar_type(t.next.size - 1)
        assert t.way.dtype == np.uint8
        assert int(t.next.max()) < t.next.size


# -- pseudo-LRU tree symmetries -----------------------------------------------


def _automorphisms(ways):
    """Every tree automorphism as (leaf map, state map), built independently.

    Automorphism ``flags`` swaps the two subtrees of each heap node whose
    bit ``node - 1`` is set: a path's direction at a source node is
    flipped when that node is swapped, and the node's bit moves to its
    image node, flipped likewise.
    """
    n_states = 1 << ways

    def image(node):
        depth = node.bit_length() - 1
        src, prefix = 1, 0
        for k in range(depth):
            d = (node >> (depth - 1 - k)) & 1
            prefix = (prefix << 1) | (d ^ ((flags >> (src - 1)) & 1))
            src = 2 * src + d
        return (1 << depth) | prefix

    for flags in range(1 << (ways - 1)):
        leaf = np.array([image(ways + w) - ways for w in range(ways)], dtype=np.int64)
        states = np.zeros(n_states, dtype=np.int64)
        for node in range(1, ways):
            bit = ((np.arange(n_states) >> node) & 1) ^ ((flags >> (node - 1)) & 1)
            states |= bit << image(node)
        yield leaf, states


def _valid_states(ways):
    return np.arange(0, 1 << ways, 2)  # heap node bits 1..ways-1


def _apply(leaf, states, tags, dirty, plru):
    """The automorphism applied to every set of a (tags, dirty, plru) state."""
    out_tags, out_dirty = np.empty_like(tags), np.empty_like(dirty)
    out_tags[:, leaf], out_dirty[:, leaf] = tags, dirty
    return out_tags, out_dirty, states[plru]


def _random_cache(rng, ways, n_sets=16, invalid_frac=0.0):
    """A cache in a random state: distinct lines per set, some ways invalid."""
    vec = VectorCache(size_bytes=n_sets * ways * 32, assoc=ways)
    lines = rng.permuted(np.tile(np.arange(4 * ways), (n_sets, 1)), axis=1)[:, :ways]
    tags = lines * n_sets + np.arange(n_sets)[:, None]
    tags[rng.random(tags.shape) < invalid_frac] = -1
    vec._tags[:] = tags
    vec._dirty[:] = rng.random(tags.shape) < 0.5
    vec._plru[:] = rng.choice(_valid_states(ways), size=n_sets)
    return vec


class TestTreeSymmetry:
    @pytest.mark.parametrize("ways", ASSOCS)
    def test_victim_and_touch_are_equivariant(self, ways):
        t = _plru_tables(ways)
        b = _valid_states(ways)
        n_auts = 0
        for leaf, states in _automorphisms(ways):
            n_auts += 1
            assert (t.victim[states[b]] == leaf[t.victim[b]]).all()
            for way in range(ways):
                assert (t.touch[states[b], leaf[way]] == states[t.touch[b, way]]).all()
        assert n_auts == b.size  # one automorphism per tree state

    @pytest.mark.parametrize("ways", ASSOCS)
    def test_order_starts_at_the_victim_and_is_a_permutation(self, ways):
        t = _plru_tables(ways)
        assert (t.order[:, 0] == t.victim).all()
        assert (np.sort(t.order, axis=1) == np.arange(ways)).all()

    @pytest.mark.parametrize("ways", ASSOCS)
    def test_compose_and_inverse_match_the_automorphisms(self, ways):
        # State t names the automorphism carrying state 0 to t, and
        # compose[t] is that automorphism's action on states.
        t = _plru_tables(ways)
        b = _valid_states(ways)
        for leaf, states in _automorphisms(ways):
            label = states[0]
            assert (t.order[label] == leaf).all()
            assert (t.compose[label, b] == states[b]).all()
            assert (t.compose[t.inverse[label], states[b]] == b).all()

    @pytest.mark.parametrize("ways", ASSOCS)
    def test_canonical_fingerprint_is_invariant(self, ways):
        rng = np.random.default_rng(ways)
        for _ in range(3):
            vec = _random_cache(rng, ways)
            base = vec.canonical_fingerprint()
            raw = vec.state_fingerprint()
            images = set()
            for leaf, states in _automorphisms(ways):
                image = VectorCache(size_bytes=vec.size_bytes, assoc=ways)
                image._tags[:], image._dirty[:], image._plru[:] = _apply(leaf, states, *raw)
                assert fingerprints_equal(image.canonical_fingerprint(), base)
                images.add(image._tags.tobytes() + image._plru.tobytes())
            # The action is free: distinct automorphisms, distinct images.
            assert len(images) == 1 << (ways - 1)

    @pytest.mark.parametrize("ways", ASSOCS)
    def test_sets_with_an_invalid_way_are_never_permuted(self, ways):
        rng = np.random.default_rng(100 + ways)
        vec = _random_cache(rng, ways, n_sets=64, invalid_frac=0.3)
        partial = (vec._tags == -1).any(axis=1)
        assert partial.any() and not partial.all()
        canon = vec.canonical_fingerprint()
        for got, raw in zip(canon, vec.state_fingerprint()):
            np.testing.assert_array_equal(got[partial], raw[partial])
        assert (canon[2][~partial] == 0).all()

    @pytest.mark.parametrize("ways", ASSOCS)
    def test_load_image_applies_the_carrying_automorphism(self, ways):
        # Per set, a random automorphism carries src onto dst;
        # load_image(y, src, dst, p) must apply its p-th power to y.
        rng = np.random.default_rng(200 + ways)
        auts = list(_automorphisms(ways))
        src = _random_cache(rng, ways, invalid_frac=0.2).state_fingerprint()
        y = _random_cache(rng, ways).state_fingerprint()
        partial = (src[0] == -1).any(axis=1)
        pick = rng.integers(len(auts), size=src[0].shape[0])
        pick[partial] = 0  # the identity: such sets match exactly
        per_set = [auts[k] for k in pick]

        def apply(state, power):
            rows = []
            for s, (leaf, states) in enumerate(per_set):
                row = tuple(arr[s : s + 1] for arr in state)
                for _ in range(power):
                    row = _apply(leaf, states, *row)
                rows.append(row)
            return tuple(np.concatenate(parts) for parts in zip(*rows))

        dst = apply(src, 1)
        vec = VectorCache(size_bytes=src[0].size * 32, assoc=ways)
        for power in (0, 1, 2, 3, 5):
            vec.load_image(y, src, dst, power)
            assert fingerprints_equal(vec.state_fingerprint(), apply(y, power)), power
        vec.load_image(src, src, dst, 1)
        assert fingerprints_equal(vec.state_fingerprint(), dst)
