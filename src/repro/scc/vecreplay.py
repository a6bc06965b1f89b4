"""Set-parallel vectorized exact cache replay.

The scalar simulator (:mod:`repro.scc.cache`) processes one address per
Python iteration — exact, but infeasible for the multi-million-access
traces of the full Table I suite.  This module replays the *same*
algorithm with NumPy array operations and is **bitwise-identical** to
the scalar engine in every observable count (hits, misses, evictions,
writebacks, per level) and in the final cache state (tags, dirty bits,
pseudo-LRU trees).  Three exactness-preserving transformations make it
fast:

1. **Set-parallel lockstep.**  A set-associative cache is ``n_sets``
   independent state machines: accesses to different sets never
   interact.  The address stream is partitioned by cache set (one
   :func:`~repro.scc.locality.stable_argsort`, a radix sort on 16-bit
   keys at every SCC geometry) and all sets advance
   *one access each* per step, so the Python-level loop runs
   ``O(max per-set depth)`` times instead of ``O(n_accesses)`` —
   ~``n_sets``-fold fewer iterations on balanced streams.

2. **Adjacent-duplicate collapse.**  Within one set's subsequence, an
   access to the line touched by the immediately preceding access of
   the same set is a guaranteed hit whose pseudo-LRU touch is
   idempotent; a run of such duplicates collapses to its first access
   with the write flags OR-ed.  Stream arrays (``ptr``/``index``/
   ``da``/``y``) collapse 4-8x.  (Only *adjacent* duplicates are safe:
   a tree-PLRU touch of a different way is not idempotent, so deeper
   reuse must be simulated.)

3. **One table lookup per step.**  A ``w``-way set's whole state —
   its ``w - 1`` tree bits, its dirty mask and its fill (the valid
   ways, always a prefix) — packs into one integer, and an access is
   one lookup at ``state + match code + write`` in a transition table
   built once per associativity from the scalar
   :class:`~repro.scc.cache._PLRUTree` (so the two engines cannot
   drift).  A step gathers its sets' tag rows, turns each row's match
   bytes into the code with one multiply-shift, and looks up the next
   state and the way the line lands in; the looked-up indices give
   the hits, misses, evictions, writebacks and the miss mask once per
   schedule.  The scalar tail walks the same table.

The replay driver in :mod:`repro.scc.tracegen` adds a fourth, at the
iteration level: repeated passes over an identical trace reach a
periodic cache state, after which every further pass contributes an
identical count delta (see ``replay_trace``).  The cycle is found
modulo the pseudo-LRU tree's symmetries
(:meth:`VectorCache.canonical_fingerprint`), much sooner than by exact
equality: a 4-way set's tree bits alone cycle with period 4.

``tests/test_vecreplay.py`` holds the differential property suite that
enforces the bitwise contract against the scalar oracle.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any, Dict, NamedTuple, Optional, Tuple

import numpy as np

from .cache import CacheStats, _PLRUTree
from .locality import stable_argsort
from .params import CACHE_ASSOC, CACHE_LINE_BYTES, L1D_BYTES, L2_BYTES

__all__ = [
    "TraceSchedule",
    "compile_schedule",
    "VectorCache",
    "VectorCacheHierarchy",
    "fingerprints_equal",
]

#: Steps narrower than this run through the scalar tail path instead of
#: paying fixed NumPy dispatch overhead per array op.  The per-set depth
#: histogram is long-tailed (a handful of hot sets — e.g. the one
#: holding a dense row's x gathers — go thousands of steps deeper than
#: the median), and those trailing steps touch only a few sets each.
TAIL_WIDTH = 24

#: A row of match bytes read as one word puts way 0 in the low byte
#: here, in the high byte on a big-endian host.
_LITTLE_ENDIAN = sys.byteorder == "little"


# -- pseudo-LRU lookup tables -------------------------------------------------


class _PLRUTables(NamedTuple):
    """Lookup tables of one associativity, indexed by packed tree bits."""

    touch: np.ndarray    #: (n_states, ways) post-touch tree state
    victim: np.ndarray   #: (n_states,) designated way
    order: np.ndarray    #: (n_states, ways) canonical way order
    compose: np.ndarray  #: (n_states, n_states) tree automorphism action
    inverse: np.ndarray  #: (n_states,) inverse automorphism


_PLRU_LUTS: Dict[int, _PLRUTables] = {}


def _plru_tables(ways: int) -> _PLRUTables:
    """Pseudo-LRU tables for a ``ways``-way tree.

    ``touch[bits, way]`` is the post-touch tree state and
    ``victim[bits]`` the designated way, generated by exhaustively
    driving the scalar :class:`_PLRUTree`, so the vectorized engine
    replays *that object's* semantics by construction.  Tree bits
    occupy heap nodes ``1..ways-1``, hence ``2**ways`` states (bit 0
    is never set).

    The other three describe the tree's symmetries.  Swapping the two
    subtrees of any node (their ways and their node bits) while
    flipping that node's bit commutes with ``touch`` and ``victim``;
    these automorphisms form a group that acts simply transitively on
    the tree states, so each state ``b`` names the automorphism that
    carries state 0 to ``b``.  ``order[b][i]`` is its leaf map: the
    leaf reached by descending with direction ``bit_i XOR node bit``
    (``bit_i`` the level's bit of ``i``, root first), so
    ``order[b][0] == victim[b]``.  Gathering a set's ways in
    ``order[b]`` therefore yields a form shared by every automorphic
    image of the set.  ``compose[t, b]`` is the state reached by
    applying automorphism ``t`` to state ``b`` (equivalently the
    product ``t * b``), and ``inverse[t]`` undoes ``t``.
    """
    tables = _PLRU_LUTS.get(ways)
    if tables is None:
        n_states = 1 << ways
        touch = np.zeros((n_states, ways), dtype=np.int64)
        victim = np.zeros(n_states, dtype=np.int64)
        tree = _PLRUTree(ways)
        for bits in range(n_states):
            tree.bits = bits
            victim[bits] = tree.victim()
            for way in range(ways):
                tree.bits = bits
                tree.touch(way)
                touch[bits, way] = tree.bits
        # Flipping every node bit of one tree level flips that level's
        # descent direction, so the descent for canonical index i is the
        # victim of the state with the levels named by i's bits flipped.
        levels = tree.levels
        level_masks = [((1 << (1 << d)) - 1) << (1 << d) for d in range(levels)]
        flips = np.array(
            [
                sum(m for d, m in enumerate(level_masks) if (i >> (levels - 1 - d)) & 1)
                for i in range(ways)
            ],
            dtype=np.int64,
        )
        order = victim[np.arange(n_states)[:, None] ^ flips]
        assert (order[:, 0] == victim).all()
        assert (np.sort(order, axis=1) == np.arange(ways)).all()
        # Automorphism t after b has leaf map order[t][order[b]]; look
        # the composed map up among the tree states' own maps.
        weights = ways ** np.arange(ways, dtype=np.int64)
        codes = order @ weights
        valid = np.arange(0, n_states, 2)  # bit 0 never set
        by_code = np.argsort(codes[valid])
        composed = order[:, order] @ weights
        compose = valid[by_code[np.searchsorted(codes[valid], composed, sorter=by_code)]]
        assert (codes[compose] == composed).all()  # closed: a group
        inverse = np.argmax(compose == 0, axis=0)
        tables = _PLRU_LUTS[ways] = _PLRUTables(touch, victim, order, compose, inverse)
    return tables


#: Widest set the step table serves: 8 ways is ~1.2 M entries, 16
#: would be ~1.5 * 10**11.
MAX_ASSOC = 8


class _StepTable(NamedTuple):
    """One cache step of one associativity, indexed by ``state + code + write``.

    A set's state packs its fill ``f`` (the valid ways, always a
    prefix: replay fills the first invalid way and only ``flush``
    invalidates), its dirty mask ``d < 2**f`` and its tree bits ``b``
    into one integer: ``m = 2**f | d`` (the marker bit above the dirty
    bits fixes ``f``), state ``((m << ways - 1) | b >> 1) * cols`` with
    ``cols = 2 * (ways + 1)``.  An access whose match code is ``c`` (0
    for a miss, ``1 + way`` for a hit) with write flag ``wr`` reads
    entry ``state + 2 * c + wr``.
    """

    next: np.ndarray   #: post-access state
    way: np.ndarray    #: way the line ends up in
    miss: np.ndarray   #: the access missed
    evict: np.ndarray  #: ... and evicted a valid line
    wb: np.ndarray     #: ... which was dirty
    cols: int          #: entries per state


_STEP_TABLES: Dict[int, _StepTable] = {}


def _step_table(ways: int) -> _StepTable:
    """The cache-step transition table of ``ways``-way sets.

    Built from :func:`_plru_tables`, so it follows the scalar
    :meth:`Cache.access_line` rule by construction: the hit way, else
    the first invalid way, else the pseudo-LRU victim, which evicts
    (writing back if dirty); the line is dirty if written or if it hit
    a dirty line.  Rows no access can reach (``m = 0``, a hit on an
    invalid way) hold in-range values.
    """
    table = _STEP_TABLES.get(ways)
    if table is None:
        lut = _plru_tables(ways)
        half, cols = 1 << (ways - 1), 2 * (ways + 1)
        # Axes: state (m, tree), code, write; int32 keeps 8 ways small.
        st = np.arange((2 << ways) * half, dtype=np.int32)[:, None, None]
        m = np.maximum(st >> (ways - 1), 1)
        b = (st & (half - 1)) << 1
        code = np.arange(ways + 1, dtype=np.int32)[:, None]
        wr = np.arange(2, dtype=np.int32)
        fill = np.frexp(m)[1].astype(np.int32) - 1
        d = m - (1 << fill)
        hit = code > 0
        way = np.where(hit, code - 1, np.where(fill < ways, fill, lut.victim[b]))
        evict = ~hit & (fill == ways)
        bit = 1 << way
        wb = evict & (d & bit != 0)
        d = np.where(wr == 1, d | bit, np.where(hit, d, d & ~bit))
        m = (1 << (fill + (~hit & ~evict))) | d
        nxt = ((m << (ways - 1)) | (lut.touch[b, way] >> 1)) * cols
        shape = nxt.shape
        dtype = np.min_scalar_type(nxt.size - 1)
        table = _STEP_TABLES[ways] = _StepTable(
            nxt.astype(dtype).ravel(),
            np.broadcast_to(way, shape).astype(np.uint8).ravel(),
            np.broadcast_to(~hit, shape).ravel(),
            np.broadcast_to(evict, shape).ravel(),
            np.broadcast_to(wb, shape).ravel(),
            cols,
        )
    return table


# -- trace schedules ----------------------------------------------------------


@dataclass(frozen=True)
class TraceSchedule:
    """A line-id stream compiled for set-parallel replay of one cache.

    Scheduled accesses are stored step-major: step ``k`` owns the slice
    ``bounds[k]:bounds[k+1]`` of the ``sets``/``slots``/``line_rows``/
    ``writes``/``orig`` arrays and touches each set at most once.  A
    schedule depends only on (lines, writes, n_sets, assoc) — never on
    cache state — so it can be compiled once and replayed many times
    (e.g. across SpMV iterations).
    """

    n_accesses: int        #: raw accesses, pre-collapse
    n_kept: int            #: accesses actually stepped
    n_steps: int           #: Python-level iterations needed
    assoc: int             #: ways of the cache it was compiled for
    sets: np.ndarray       #: (n_kept,) set index per scheduled access
    slots: np.ndarray      #: (n_kept,) ``sets * assoc``, the set's first tag
    line_rows: np.ndarray  #: (n_kept, assoc) the line id, once per way
    lines: np.ndarray      #: (n_kept,) line id per scheduled access (a column view)
    writes: np.ndarray     #: (n_kept,) run-ORed write flags, uint8 0/1
    orig: np.ndarray       #: (n_kept,) original (program-order) position
    bounds: np.ndarray     #: (n_steps + 1,) step slice boundaries
    collapsed: int         #: adjacent duplicates folded away (all hits)


def compile_schedule(
    lines: np.ndarray,
    writes: Optional[np.ndarray],
    n_sets: int,
    assoc: int = CACHE_ASSOC,
) -> TraceSchedule:
    """Compile a program-order line stream into a set-parallel schedule."""
    lines = np.ascontiguousarray(lines, dtype=np.int64)
    n = lines.size
    empty64 = np.empty(0, dtype=np.int64)
    if n == 0:
        return TraceSchedule(
            0, 0, 0, assoc, empty64, empty64, np.empty((0, assoc), dtype=np.int64),
            empty64, np.empty(0, dtype=np.uint8), empty64, np.zeros(1, dtype=np.int64), 0,
        )
    set_idx = lines % n_sets
    order = stable_argsort(set_idx)
    lines_s = lines[order]

    # Adjacent-duplicate collapse.  Equal neighbours in the set-grouped
    # ordering are consecutive touches of one line within one set
    # (distinct sets can never share a line id, so no cross-set alias).
    keep = np.empty(n, dtype=bool)
    keep[0] = True
    np.not_equal(lines_s[1:], lines_s[:-1], out=keep[1:])
    run_starts = np.flatnonzero(keep)
    nk = run_starts.size
    if writes is None:
        w_kept = np.zeros(nk, dtype=bool)
    else:
        writes_s = np.ascontiguousarray(writes, dtype=bool)[order]
        w_kept = np.logical_or.reduceat(writes_s, run_starts)
    orig_k = order[run_starts]
    lines_k = lines_s[run_starts]
    sets_k = set_idx[orig_k]
    del set_idx, order, lines_s, keep  # the rest is n_kept-sized

    # Depth of each kept access within its set group = step number.
    # Step-major order is built as a ragged transpose, not a second
    # argsort: with set groups ranked by length (descending), step d's
    # members are exactly the first ``widths[d]`` ranked groups, each
    # contributing its element at depth d.  Intra-step order differs
    # from a depth-stable sort but is immaterial — a step touches each
    # set at most once, and every per-step operation is elementwise.
    gb = np.empty(nk, dtype=bool)
    gb[0] = True
    np.not_equal(sets_k[1:], sets_k[:-1], out=gb[1:])
    group_starts = np.flatnonzero(gb)
    lengths = np.diff(np.append(group_starts, nk))
    n_steps = int(lengths.max())
    ng = group_starts.size
    # widths[d] = groups still active at depth d = #lengths > d.
    cum = np.cumsum(np.bincount(lengths, minlength=n_steps + 1))
    widths = ng - cum[:n_steps]
    bounds = np.zeros(n_steps + 1, dtype=np.int64)
    np.cumsum(widths, out=bounds[1:])
    ranked_starts = group_starts[np.argsort(-lengths, kind="stable")]
    d_of_p = np.repeat(np.arange(n_steps, dtype=np.int64), widths)
    order2 = np.arange(nk, dtype=np.int64)
    order2 -= bounds[d_of_p]                 # rank within the step
    order2 = ranked_starts[order2]
    order2 += d_of_p
    sets = sets_k[order2]
    # Each line repeated once per way, so the tag compare needs no
    # broadcast (a broadcast row compare costs ~3x).
    line_rows = np.repeat(lines_k[order2][:, None], assoc, axis=1)
    return TraceSchedule(
        n_accesses=n,
        n_kept=nk,
        n_steps=n_steps,
        assoc=assoc,
        sets=sets,
        slots=sets * assoc,
        line_rows=line_rows,
        lines=line_rows[:, 0],
        writes=w_kept[order2].view(np.uint8),
        orig=orig_k[order2],
        bounds=bounds,
        collapsed=n - nk,
    )


# -- the engine ---------------------------------------------------------------


class VectorCache:
    """One cache level, replayed set-parallel.  Mirrors :class:`Cache`."""

    def __init__(
        self,
        size_bytes: int = L2_BYTES,
        assoc: int = CACHE_ASSOC,
        line_bytes: int = CACHE_LINE_BYTES,
        name: str = "cache",
    ) -> None:
        # Same geometry contract as the scalar Cache (and pseudo-LRU
        # additionally requires power-of-two ways, as there).
        if size_bytes <= 0 or assoc <= 0 or line_bytes <= 0:
            raise ValueError("cache geometry must be positive")
        if size_bytes % (assoc * line_bytes):
            raise ValueError(
                f"{name}: size {size_bytes} not divisible by assoc*line "
                f"({assoc}*{line_bytes})"
            )
        if assoc & (assoc - 1):
            raise ValueError(f"pseudo-LRU requires power-of-two ways, got {assoc}")
        if assoc > MAX_ASSOC:
            raise ValueError(f"vectorized replay supports up to {MAX_ASSOC} ways, got {assoc}")
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.line_bytes = line_bytes
        self.name = name
        self.n_sets = size_bytes // (assoc * line_bytes)
        self._tags = np.full((self.n_sets, assoc), -1, dtype=np.int64)
        self._dirty = np.zeros((self.n_sets, assoc), dtype=bool)
        self._plru = np.zeros(self.n_sets, dtype=np.int64)
        self._luts = _plru_tables(assoc)
        self.stats = CacheStats()
        #: steps narrower than this fall back to the scalar tail path
        #: (0 forces pure-vector, a huge value forces pure-scalar —
        #: both exercised by the differential tests).
        self.tail_width = TAIL_WIDTH
        #: replay-throughput counters (exported via obs metrics).
        self.steps_run = 0
        self.collapsed_hits = 0
        self.tail_accesses = 0

    @property
    def n_lines(self) -> int:
        """Total line capacity (sets * ways)."""
        return self.n_sets * self.assoc

    def _pack(self, table: _StepTable) -> np.ndarray:
        """Per-set step-table states of the stored (tags, dirty, plru)."""
        valid = self._tags != -1
        fill = valid.sum(axis=1)
        ways = np.arange(self.assoc)
        if (valid != (ways < fill[:, None])).any():
            raise ValueError(f"{self.name}: a set's invalid ways must follow its valid ones")
        m = (1 << fill) | ((self._dirty & valid) << ways).sum(axis=1)
        return ((m << (self.assoc - 1)) | (self._plru >> 1)) * table.cols

    def _unpack(self, state: np.ndarray, table: _StepTable) -> None:
        """Store per-set step-table states back as (dirty, plru)."""
        st = state // table.cols
        m = st >> (self.assoc - 1)
        self._plru[:] = (st & ((1 << (self.assoc - 1)) - 1)) << 1
        # Bit f of m is the fill marker, over the first invalid way.
        self._dirty[:] = ((m[:, None] >> np.arange(self.assoc)) & 1 == 1) & (self._tags != -1)

    def replay_schedule(self, sched: TraceSchedule) -> np.ndarray:
        """Advance the cache through a compiled schedule.

        Returns the program-order boolean *miss mask* over the raw
        (pre-collapse) accesses; collapsed duplicates are hits by
        construction.  Stats accrue exactly as the scalar engine's
        would.

        A step is one :func:`_step_table` lookup per set, at ``state +
        2 * code + write``; the looked-up indices give the counts and
        the miss mask once per schedule.
        """
        ways = self.assoc
        if sched.assoc != ways:
            raise ValueError(f"schedule compiled for {sched.assoc} ways, cache has {ways}")
        table = _step_table(ways)
        state = self._pack(table)
        nxt, way_of = table.next, table.way
        tags, tags_flat = self._tags, self._tags.reshape(-1)
        all_sets, all_slots, all_rows = sched.sets, sched.slots, sched.line_rows
        all_lines, all_writes = sched.lines, sched.writes
        # A row has at most one match byte.  Multiplier byte i meets
        # way j's in the top byte when i + (j's position) == ways - 1,
        # and puts 2 * (1 + j) there; the shifted word is read as
        # signed, so adding the int64 state stays integral.
        word, signed = np.dtype(f"u{ways}"), np.dtype(f"i{ways}")
        codes = range(2 * ways, 0, -2) if _LITTLE_ENDIAN else range(2, 2 * ways + 1, 2)
        mul = word.type(sum(c << 8 * i for i, c in enumerate(codes)))
        shift = 8 * (ways - 1)
        visited = np.empty(sched.n_kept, dtype=nxt.dtype)
        bl = sched.bounds.tolist()  # Python ints: no np-scalar slicing overhead
        # Step widths are non-increasing (a set active at depth d was
        # active at every depth < d), so the scalar tail is a suffix:
        # cut over at the first step narrower than tail_width.
        widths = np.diff(sched.bounds)
        n_vec_steps = int(np.searchsorted(-widths, -(self.tail_width - 1)))
        for k in range(n_vec_steps):
            lo, hi = bl[k], bl[k + 1]
            s = all_sets[lo:hi]
            eq = tags.take(s, axis=0) == all_rows[lo:hi]  # (m, ways) match bytes
            code = eq.view(word).ravel() * mul
            code >>= shift
            idx = code.view(signed) + state.take(s)
            idx += all_writes[lo:hi]
            state[s] = nxt[idx]
            tags_flat[all_slots[lo:hi] + way_of[idx]] = all_lines[lo:hi]
            visited[lo:hi] = idx
        lo_tail = bl[n_vec_steps]
        if lo_tail < sched.n_kept:
            self._replay_tail(sched, lo_tail, state, visited)
        self._unpack(state, table)
        miss = table.miss[visited]
        miss_mask = np.zeros(sched.n_accesses, dtype=bool)
        miss_mask[sched.orig] = miss
        n_miss = int(np.count_nonzero(miss))
        self.stats.hits += sched.n_kept - n_miss + sched.collapsed
        self.stats.misses += n_miss
        self.stats.evictions += int(np.count_nonzero(table.evict[visited]))
        self.stats.writebacks += int(np.count_nonzero(table.wb[visited]))
        self.steps_run += n_vec_steps
        self.collapsed_hits += sched.collapsed
        return miss_mask

    def _replay_tail(
        self, sched: TraceSchedule, lo: int, state: np.ndarray, visited: np.ndarray
    ) -> None:
        """Replay the narrow-step suffix scalar-wise.

        The suffix touches only the few sets still active at depth
        ``n_vec_steps``; their tag rows and states are unpacked into
        Python lists, the accesses are walked one by one through the
        same step table (step-major order preserves each set's program
        order, and distinct sets are independent), and the result is
        packed back into ``state`` and ``visited``.
        """
        table = _step_table(self.assoc)
        nxt, way_of = memoryview(table.next), memoryview(table.way)
        tags = self._tags
        sets_t = sched.sets[lo:].tolist()
        local = {s: [tags[s].tolist(), int(state[s])] for s in set(sets_t)}
        out = []
        for s, line, w in zip(sets_t, sched.lines[lo:].tolist(), sched.writes[lo:].tolist()):
            st = local[s]
            row = st[0]
            i = st[1] + w
            if line in row:
                i += 2 + 2 * row.index(line)
            st[1] = nxt[i]
            row[way_of[i]] = line
            out.append(i)
        for s, (row, st) in local.items():
            tags[s] = row
            state[s] = st
        visited[lo:] = out
        self.tail_accesses += len(sets_t)

    def access_lines(self, lines: np.ndarray, writes: Optional[np.ndarray] = None) -> int:
        """Replay a line-id stream; returns the miss count added."""
        before = self.stats.misses
        self.replay_schedule(compile_schedule(lines, writes, self.n_sets, self.assoc))
        return self.stats.misses - before

    def access_trace(self, addrs: np.ndarray, writes: Optional[np.ndarray] = None) -> int:
        """Replay a byte-address trace; returns the miss count added.

        Drop-in for :meth:`Cache.access_trace`, including the writes
        shape validation.
        """
        addrs = np.asarray(addrs, dtype=np.int64)
        if writes is not None:
            writes = np.asarray(writes, dtype=bool)
            if writes.shape != addrs.shape:
                raise ValueError("writes must match addrs shape")
        return self.access_lines(addrs // self.line_bytes, writes)

    def contains_line(self, line: int) -> bool:
        """True if the line is currently resident."""
        return bool((self._tags[line % self.n_sets] == line).any())

    def flush(self) -> int:
        """Invalidate everything; returns the dirty lines written back."""
        dirty = int(self._dirty.sum())
        self.stats.writebacks += dirty
        self._tags.fill(-1)
        self._dirty.fill(False)
        self._plru.fill(0)
        return dirty

    def state_fingerprint(self) -> Tuple[np.ndarray, ...]:
        """Copies of (tags, dirty, plru) — equality means identical state."""
        return (self._tags.copy(), self._dirty.copy(), self._plru.copy())

    @staticmethod
    def _frames(tags: np.ndarray, plru: np.ndarray) -> np.ndarray:
        """Per-set automorphism carrying the canonical form to the state.

        A full set's PLRU state names it; a set with an invalid way
        gets the identity (0), because the first-invalid-way search is
        not symmetric and such sets must match exactly.
        """
        return np.where((tags != -1).all(axis=1), plru, 0)

    def canonical_fingerprint(self) -> Tuple[np.ndarray, ...]:
        """(tags, dirty, plru) modulo the pseudo-LRU tree's symmetries.

        Full sets have their tags and dirty bits gathered in canonical
        way order (:func:`_plru_tables`) and their tree bits zeroed;
        sets with an invalid way are kept as they are.  Equal results
        mean each set is a tree automorphism's image of the other's,
        so the same stream yields the same counts and miss mask from
        both, and again equal results.
        """
        frames = self._frames(self._tags, self._plru)
        idx = self._luts.order[frames]
        return (
            np.take_along_axis(self._tags, idx, axis=1),
            np.take_along_axis(self._dirty, idx, axis=1),
            self._plru ^ frames,  # 0 for full sets
        )

    def load_image(
        self,
        state: Tuple[np.ndarray, ...],
        src: Tuple[np.ndarray, ...],
        dst: Tuple[np.ndarray, ...],
        power: int,
    ) -> None:
        """Set the cache to ``tau**power`` applied to ``state``.

        ``tau`` is the per-set automorphism that carries fingerprint
        ``src`` onto ``dst`` (two canonically equal
        :meth:`state_fingerprint` results of this cache): fixed by their
        PLRU states for full sets, the identity otherwise.  All three
        are (tags, dirty, plru) triples; the stats are left alone.
        """
        luts = self._luts
        tags, dirty, plru = state
        tau = luts.compose[
            self._frames(dst[0], dst[2]), luts.inverse[self._frames(src[0], src[2])]
        ]
        image = plru
        # The automorphism group has 2**(assoc-1) elements, so tau's
        # order divides that.
        for _ in range(power % (1 << (self.assoc - 1))):
            image = luts.compose[tau, image]
        # tau**power carries way order[plru][i] to way order[image][i].
        src_ways, dst_ways = luts.order[plru], luts.order[image]
        for out, arr in ((self._tags, tags), (self._dirty, dirty)):
            np.put_along_axis(out, dst_ways, np.take_along_axis(arr, src_ways, axis=1), axis=1)
        self._plru[:] = image

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<VectorCache {self.name} {self.size_bytes // 1024}KB "
            f"{self.assoc}-way {self.n_sets} sets>"
        )


class VectorCacheHierarchy:
    """Two-level private hierarchy, replayed set-parallel per level.

    Level chaining is exact: the L1 is replayed first and its misses —
    in program order, with their original write flags — form the L2's
    input stream, exactly the accesses :meth:`CacheHierarchy.access`
    would forward.  (The scalar hierarchy never routes L1 writebacks
    through L2, so per-level replay composes without loss.)
    """

    def __init__(
        self,
        l1_bytes: int = L1D_BYTES,
        l2_bytes: int = L2_BYTES,
        assoc: int = CACHE_ASSOC,
        line_bytes: int = CACHE_LINE_BYTES,
        l2_enabled: bool = True,
    ) -> None:
        self.l1 = VectorCache(l1_bytes, assoc, line_bytes, name="L1D")
        self.l2_enabled = l2_enabled
        self.l2 = (
            VectorCache(l2_bytes, assoc, line_bytes, name="L2") if l2_enabled else None
        )
        self.line_bytes = line_bytes

    def access_lines(
        self,
        lines: np.ndarray,
        writes: Optional[np.ndarray] = None,
        l1_schedule: Optional[TraceSchedule] = None,
    ) -> Dict[str, int]:
        """Replay a line stream; returns {'l1': hits, 'l2': hits, 'mem': misses}.

        ``l1_schedule`` (from :func:`compile_schedule` against
        ``self.l1.n_sets``) skips recompilation when the same stream is
        replayed repeatedly.  The L2 schedule compiles on every call:
        its input is the stream under the L1 miss mask, which depends on
        L1 state.
        """
        lines = np.ascontiguousarray(lines, dtype=np.int64)
        n = lines.size
        if l1_schedule is None:
            l1_schedule = compile_schedule(lines, writes, self.l1.n_sets, self.l1.assoc)
        miss_mask = self.l1.replay_schedule(l1_schedule)
        n_l1_miss = int(np.count_nonzero(miss_mask))
        if self.l2 is None:
            return {"l1": n - n_l1_miss, "l2": 0, "mem": n_l1_miss}
        miss_writes = None
        if writes is not None:
            miss_writes = np.asarray(writes, dtype=bool)[miss_mask]
        sched2 = compile_schedule(lines[miss_mask], miss_writes, self.l2.n_sets, self.l2.assoc)
        n_mem = int(np.count_nonzero(self.l2.replay_schedule(sched2)))
        return {"l1": n - n_l1_miss, "l2": n_l1_miss - n_mem, "mem": n_mem}

    def access_trace(
        self, addrs: np.ndarray, writes: Optional[np.ndarray] = None
    ) -> Dict[str, int]:
        """Replay a byte-address trace (drop-in for the scalar hierarchy)."""
        addrs = np.asarray(addrs, dtype=np.int64)
        if writes is not None:
            writes = np.asarray(writes, dtype=bool)
            if writes.shape != addrs.shape:
                raise ValueError("writes must match addrs shape")
        return self.access_lines(addrs // self.line_bytes, writes)

    def flush(self) -> None:
        """Invalidate both levels (write-back counts accrue in stats)."""
        self.l1.flush()
        if self.l2 is not None:
            self.l2.flush()

    @property
    def levels(self) -> Tuple[VectorCache, ...]:
        """The enabled levels, L1 first."""
        return (self.l1,) if self.l2 is None else (self.l1, self.l2)

    def state_fingerprint(self) -> Tuple[np.ndarray, ...]:
        """Concatenated level fingerprints; equality means identical state."""
        return tuple(a for lv in self.levels for a in lv.state_fingerprint())

    def canonical_fingerprint(self) -> Tuple[np.ndarray, ...]:
        """Concatenated canonical level fingerprints.

        The L2's input is the L1's miss mask, so equal results mean the
        same stream yields the same counts at both levels.
        """
        return tuple(a for lv in self.levels for a in lv.canonical_fingerprint())

    def load_image(
        self,
        state: Tuple[np.ndarray, ...],
        src: Tuple[np.ndarray, ...],
        dst: Tuple[np.ndarray, ...],
        power: int,
    ) -> None:
        """Per level, :meth:`VectorCache.load_image` on the level's slice
        of these :meth:`state_fingerprint` results."""
        for i, lv in enumerate(self.levels):
            part = slice(3 * i, 3 * i + 3)
            lv.load_image(state[part], src[part], dst[part], power)

    @property
    def steps_run(self) -> int:
        """Total set-parallel steps executed across both levels."""
        return self.l1.steps_run + (self.l2.steps_run if self.l2 else 0)

    @property
    def collapsed_hits(self) -> int:
        """Total adjacent duplicates folded away across both levels."""
        return self.l1.collapsed_hits + (self.l2.collapsed_hits if self.l2 else 0)

    @property
    def tail_accesses(self) -> int:
        """Total accesses replayed through the scalar tail path."""
        return self.l1.tail_accesses + (self.l2.tail_accesses if self.l2 else 0)

    def publish_metrics(self, tracer: Optional[Any], core: int = 0) -> None:
        """Export per-level hit/miss counters (same shape as the scalar's)."""
        if not tracer:
            return
        self.l1.stats.publish(tracer.metrics, "L1D", core=core)
        if self.l2 is not None:
            self.l2.stats.publish(tracer.metrics, "L2", core=core)


def fingerprints_equal(a: Tuple[np.ndarray, ...], b: Tuple[np.ndarray, ...]) -> bool:
    """Exact equality of two state fingerprints."""
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))
