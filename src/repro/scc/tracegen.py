"""Exact address-trace generation for the CSR SpMV kernel.

:func:`spmv_address_trace` emits the byte-address stream the Fig. 2
kernel issues for a row block, in program order::

    for i in rows:
        load ptr[i], ptr[i+1]
        for j in ptr[i]..ptr[i+1]:
            load index[j]; load da[j]; load x[index[j]]
        store y[i]

These traces feed the exact cache hierarchy
(:class:`~repro.scc.cache.CacheHierarchy`) to produce *trace-exact*
hit/miss counts — the ground truth that the fast analytical
characterization of :mod:`repro.core.trace` is validated against (see
``tests/test_scc_tracegen.py`` and ablation bench A2).

:func:`replay_trace` offers two engines.  ``engine="scalar"`` walks the
hierarchy one address per Python iteration — the oracle, reserved for
validation-scale traces.  ``engine="vectorized"`` replays through the
set-parallel engine (:mod:`repro.scc.vecreplay`), bitwise-identical by
the differential contract, and adds two levers of its own:

* **iteration cycling** — the per-pass trace is identical, so the
  hierarchy state (a finite, deterministic machine) eventually cycles;
  once a state repeats modulo the pseudo-LRU tree's symmetries, every
  remaining iteration's counts are the recorded cycle deltas, summed
  without simulating, and the hierarchy is set to the state the
  skipped passes would have left; and
* a **content-addressed disk cache** (:mod:`repro.store`, namespace
  ``replay``) keyed by the matrix pattern digest, row range, layout,
  cache geometry and iteration count, so campaigns and the differential
  harness never replay the same block twice.

:func:`spmv_address_trace_chunks` streams the same trace in bounded
row-block chunks (O(chunk) memory); feeding the chunks through one
persistent hierarchy is exactly equivalent to one concatenated trace,
so the vectorized path scales to traces that never fit in memory.

The arrays are laid out at disjoint, page-aligned virtual bases; with a
modulo-indexed cache only the relative offsets matter.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from ..sparse.csr import CSRMatrix
from ..store import ContentStore, digest_parts
from .cache import CacheHierarchy
from .params import CACHE_ASSOC, CACHE_LINE_BYTES, L1D_BYTES, L2_BYTES
from .vecreplay import VectorCacheHierarchy, compile_schedule, fingerprints_equal

__all__ = [
    "TraceLayout",
    "DEFAULT_LAYOUT",
    "spmv_address_trace",
    "spmv_address_trace_chunks",
    "replay_trace",
    "TraceCounts",
    "REPLAY_ENGINES",
    "CHUNK_ACCESSES",
    "REPLAY_SCHEMA_VERSION",
]

REPLAY_ENGINES = ("scalar", "vectorized")

#: default chunk bound for streaming trace generation: ~50 MB of
#: address+write arrays per chunk, far below full-suite trace sizes.
CHUNK_ACCESSES = 4_000_000

#: bump when the replay algorithm or the cached payload shape changes;
#: old disk entries are orphaned rather than reinterpreted.
#: v2: the machine's :meth:`repro.machine.base.MachineModel.cache_key`
#: entered the content address (multi-machine model zoo).
REPLAY_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class TraceLayout:
    """Virtual base addresses of the five kernel arrays."""

    # Bases are staggered by odd multiples of ~8 KB so the five arrays
    # start in different cache sets, as real page-aligned allocations
    # do.  Identical low bits (all zero mod the 64 KB set stride) would
    # pile every array onto set 0 and fabricate conflict misses.
    ptr_base: int = 0x1000_0000
    index_base: int = 0x2000_2040
    da_base: int = 0x3000_4080
    x_base: int = 0x4000_60C0
    y_base: int = 0x5000_8100

    def __post_init__(self) -> None:
        bases = sorted(
            (self.ptr_base, self.index_base, self.da_base, self.x_base, self.y_base)
        )
        for lo, hi in zip(bases, bases[1:]):
            if hi - lo < 0x0100_0000:  # 16 MB guard: arrays must not overlap
                raise ValueError("array bases must be at least 16 MB apart")


DEFAULT_LAYOUT = TraceLayout()


def spmv_address_trace(
    a: CSRMatrix,
    row_start: int = 0,
    row_stop: Optional[int] = None,
    no_x_miss: bool = False,
    layout: TraceLayout = DEFAULT_LAYOUT,
) -> Tuple[np.ndarray, np.ndarray]:
    """Byte-address trace of one SpMV pass over rows [row_start, row_stop).

    Returns ``(addrs, writes)`` in program order.  ``no_x_miss=True``
    generates the Sec. IV-C variant where every gather reads ``x[0]``.
    The construction is fully vectorized.
    """
    stop = a.n_rows if row_stop is None else row_stop
    if not (0 <= row_start <= stop <= a.n_rows):
        raise ValueError(f"bad row range [{row_start}, {stop})")
    rows = stop - row_start
    lo, hi = int(a.ptr[row_start]), int(a.ptr[stop])
    nnz = hi - lo
    lengths = np.diff(a.ptr[row_start : stop + 1]).astype(np.int64)

    n_accesses = 3 * rows + 3 * nnz
    addrs = np.empty(n_accesses, dtype=np.int64)
    writes = np.zeros(n_accesses, dtype=bool)
    if n_accesses == 0:
        return addrs, writes

    # Position bookkeeping: row i's accesses start at base_i and occupy
    # [2 ptr loads][3 per nonzero][1 y store].
    row_base = np.zeros(rows, dtype=np.int64)
    if rows > 1:
        np.cumsum(3 * lengths[:-1] + 3, out=row_base[1:])

    row_ids = np.arange(row_start, stop, dtype=np.int64)
    # ptr[i] and ptr[i+1] loads.
    addrs[row_base] = layout.ptr_base + 4 * row_ids
    addrs[row_base + 1] = layout.ptr_base + 4 * (row_ids + 1)
    # y[i] store at the end of each row.
    y_pos = row_base + 2 + 3 * lengths
    addrs[y_pos] = layout.y_base + 8 * row_ids
    writes[y_pos] = True

    if nnz:
        # Element positions: for nonzero k (global, 0-based within the
        # block) in row i at local offset l: base_i + 2 + 3l (+0/1/2).
        elem_rows = np.repeat(np.arange(rows, dtype=np.int64), lengths)
        local = np.arange(nnz, dtype=np.int64) - np.repeat(
            np.concatenate(([0], np.cumsum(lengths[:-1]))), lengths
        )
        elem_base = row_base[elem_rows] + 2 + 3 * local
        j = np.arange(lo, hi, dtype=np.int64)
        addrs[elem_base] = layout.index_base + 4 * j
        addrs[elem_base + 1] = layout.da_base + 8 * j
        if no_x_miss:
            addrs[elem_base + 2] = layout.x_base
        else:
            addrs[elem_base + 2] = layout.x_base + 8 * a.index[lo:hi].astype(np.int64)
    return addrs, writes


def spmv_address_trace_chunks(
    a: CSRMatrix,
    row_start: int = 0,
    row_stop: Optional[int] = None,
    no_x_miss: bool = False,
    layout: TraceLayout = DEFAULT_LAYOUT,
    max_accesses: int = CHUNK_ACCESSES,
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Stream the trace of rows [row_start, row_stop) in row-block chunks.

    Yields ``(addrs, writes)`` pairs covering consecutive row blocks;
    concatenating them reproduces :func:`spmv_address_trace` exactly,
    so replaying chunks through one persistent hierarchy is equivalent
    to replaying the full trace while memory stays O(``max_accesses``).
    Each chunk holds at most ``max_accesses`` accesses, except that a
    single row whose own trace exceeds the bound is emitted alone
    (rows are never split).
    """
    stop = a.n_rows if row_stop is None else row_stop
    if not (0 <= row_start <= stop <= a.n_rows):
        raise ValueError(f"bad row range [{row_start}, {stop})")
    if max_accesses < 1:
        raise ValueError(f"max_accesses must be >= 1, got {max_accesses}")

    def chunks() -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        # Cumulative access count up to row i: g[i] = 3*i + 3*ptr[i].
        g = 3 * np.arange(a.n_rows + 1, dtype=np.int64) + 3 * a.ptr
        r = row_start
        while r < stop:
            r2 = int(np.searchsorted(g, g[r] + max_accesses, side="right")) - 1
            r2 = max(r + 1, min(r2, stop))
            yield spmv_address_trace(a, r, r2, no_x_miss, layout)
            r = r2

    return chunks()


@dataclass(frozen=True)
class TraceCounts:
    """Hit/miss totals from replaying a trace through the hierarchy."""

    l1_hits: int
    l2_hits: int
    mem_misses: int

    @property
    def accesses(self) -> int:
        """Total accesses replayed (hits + misses)."""
        return self.l1_hits + self.l2_hits + self.mem_misses


def _replay_cache_key(
    a: CSRMatrix,
    row_start: int,
    row_stop: int,
    iterations: int,
    no_x_miss: bool,
    l2_enabled: bool,
    layout: TraceLayout,
    machine_key: str = "scc-48",
) -> str:
    """Disk-cache key: every input the replay result depends on.

    The matrix enters via its sparsity-pattern digest (values never
    affect the trace); the cache geometry constants and the machine's
    :meth:`~repro.machine.base.MachineModel.cache_key` are included so
    a parameter change — or a different modeled machine — can never
    resurface a stale count.
    """
    return digest_parts(
        "replay",
        REPLAY_SCHEMA_VERSION,
        machine_key,
        a.pattern_digest(),
        row_start,
        row_stop,
        iterations,
        no_x_miss,
        l2_enabled,
        layout.ptr_base,
        layout.index_base,
        layout.da_base,
        layout.x_base,
        layout.y_base,
        L1D_BYTES,
        L2_BYTES,
        CACHE_ASSOC,
        CACHE_LINE_BYTES,
    )


def _hierarchy_stats(h: VectorCacheHierarchy) -> Tuple[Tuple[int, int, int, int], ...]:
    """Per-level (hits, misses, evictions, writebacks) snapshot."""
    return tuple(
        (lv.stats.hits, lv.stats.misses, lv.stats.evictions, lv.stats.writebacks)
        for lv in h.levels
    )


def _fingerprint_digest(fp: Tuple[np.ndarray, ...]) -> str:
    """Hash of a state fingerprint (every array of both levels)."""
    hasher = hashlib.sha256()
    for arr in fp:
        hasher.update(arr.tobytes())
    return hasher.hexdigest()


def _replay_vectorized(
    a: CSRMatrix,
    row_start: int,
    row_stop: int,
    iterations: int,
    no_x_miss: bool,
    layout: TraceLayout,
    h: VectorCacheHierarchy,
    chunk_accesses: int,
) -> Tuple[TraceCounts, Dict[str, int]]:
    """Set-parallel replay with exact iteration-cycle fast-forward.

    The per-iteration trace is identical, and the hierarchy is a finite
    deterministic state machine driven by it — so the sequence of
    post-iteration states must eventually enter a cycle, sooner modulo
    the pseudo-LRU tree's symmetries.  Once the state after pass k is
    canonically equal to the state after an earlier pass j (digest
    match confirmed by exact comparison), a per-set tree automorphism
    tau carries state j + r to state k + r for every r, so iteration
    k + r reproduces the counts of iteration j + r and the tail is
    summed from the recorded deltas.  With ``iterations - j =
    m * (k - j) + r``, the hierarchy is left in ``tau**m`` of the
    recorded state j + r: counts, per-level stats and the final state
    stay bitwise-identical to simulating every iteration.
    """
    n_total = 3 * (row_stop - row_start) + 3 * int(a.ptr[row_stop] - a.ptr[row_start])
    single_chunk = n_total <= chunk_accesses
    steps_before = h.steps_run
    collapsed_before = h.collapsed_hits
    tail_before = h.tail_accesses

    if single_chunk:
        lines, writes = spmv_address_trace(a, row_start, row_stop, no_x_miss, layout)
        lines //= h.line_bytes  # in place: the byte addresses are not read again
        # The L1 schedule depends only on the stream: compile once,
        # replay every iteration.
        l1_sched = compile_schedule(lines, writes, h.l1.n_sets, h.l1.assoc)

        def run_pass() -> Dict[str, int]:
            return h.access_lines(lines, writes, l1_schedule=l1_sched)

    else:

        def run_pass() -> Dict[str, int]:
            counts = {"l1": 0, "l2": 0, "mem": 0}
            for addrs, writes in spmv_address_trace_chunks(
                a, row_start, row_stop, no_x_miss, layout, max_accesses=chunk_accesses
            ):
                addrs //= h.line_bytes  # in place, as above
                chunk = h.access_lines(addrs, writes)
                for key in counts:
                    counts[key] += chunk[key]
            return counts

    totals = {"l1": 0, "l2": 0, "mem": 0}
    # canonical digest -> (passes, canonical fingerprint after them)
    seen: Dict[str, Tuple[int, Tuple[np.ndarray, ...]]] = {}
    states: List[Tuple[np.ndarray, ...]] = []  # states[i]: after i + 1 passes
    count_deltas: List[Dict[str, int]] = []
    stats_deltas: List[Tuple[Tuple[int, int, int, int], ...]] = []
    simulated = 0
    fast_forwarded = 0
    while simulated < iterations:
        stats_before = _hierarchy_stats(h)
        counts = run_pass()
        simulated += 1
        for key in totals:
            totals[key] += counts[key]
        count_deltas.append(counts)
        stats_after = _hierarchy_stats(h)
        stats_deltas.append(
            tuple(
                tuple(after - before for after, before in zip(lvl_a, lvl_b))
                for lvl_a, lvl_b in zip(stats_after, stats_before)
            )
        )
        if simulated == iterations:
            break
        states.append(h.state_fingerprint())
        canon = h.canonical_fingerprint()
        digest = _fingerprint_digest(canon)
        hit = seen.get(digest)
        if hit is not None and fingerprints_equal(hit[1], canon):
            start = hit[0]  # state after `start` iterations ~ state now
            period = simulated - start
            remaining = iterations - simulated
            fast_forwarded = remaining
            # Iteration start+1+r (r >= 0) repeats delta index start + r % period.
            level_sums = [[0, 0, 0, 0] for _ in stats_deltas[0]]
            for r in range(remaining):
                cyc_counts = count_deltas[start + r % period]
                for key in totals:
                    totals[key] += cyc_counts[key]
                for lvl, delta in zip(level_sums, stats_deltas[start + r % period]):
                    for i in range(4):
                        lvl[i] += delta[i]
            for lv, (d_hits, d_misses, d_ev, d_wb) in zip(h.levels, level_sums):
                lv.stats.hits += d_hits
                lv.stats.misses += d_misses
                lv.stats.evictions += d_ev
                lv.stats.writebacks += d_wb
            cycles, r = divmod(iterations - start, period)
            h.load_image(states[start + r - 1], states[start - 1], states[-1], cycles)
            break
        seen[digest] = (simulated, canon)
    detail = {
        "accesses": n_total * iterations,
        "simulated_iterations": simulated,
        "fastforward_iterations": fast_forwarded,
        "steps": h.steps_run - steps_before,
        "collapsed_hits": h.collapsed_hits - collapsed_before,
        "tail_accesses": h.tail_accesses - tail_before,
    }
    return TraceCounts(totals["l1"], totals["l2"], totals["mem"]), detail


def replay_trace(
    a: CSRMatrix,
    row_start: int = 0,
    row_stop: Optional[int] = None,
    iterations: int = 1,
    no_x_miss: bool = False,
    l2_enabled: bool = True,
    layout: TraceLayout = DEFAULT_LAYOUT,
    hierarchy: Optional[Union[CacheHierarchy, VectorCacheHierarchy]] = None,
    engine: str = "scalar",
    chunk_accesses: int = CHUNK_ACCESSES,
    use_disk_cache: Optional[bool] = None,
    tracer=None,
    machine_key: str = "scc-48",
) -> TraceCounts:
    """Run ``iterations`` SpMV passes through an exact cache hierarchy.

    A fresh SCC-geometry hierarchy is used unless one is supplied
    (supplying one lets callers observe warm-cache behaviour across
    calls).  Returns cumulative counts over all iterations.

    ``engine="scalar"`` is the per-access oracle; ``engine="vectorized"``
    produces bitwise-identical counts via :mod:`repro.scc.vecreplay`,
    streams the trace in ``chunk_accesses`` chunks, fast-forwards
    repeated iterations once the cache state cycles, and memoizes
    results in the content-addressed disk store (cold-hierarchy runs
    only; disable with ``use_disk_cache=False`` or globally via
    ``REPRO_NO_DISK_CACHE=1``).  A ``tracer`` records replay-throughput
    counters under ``replay.*``.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    if engine not in REPLAY_ENGINES:
        raise ValueError(f"engine must be one of {REPLAY_ENGINES}, got {engine!r}")
    stop = a.n_rows if row_stop is None else row_stop

    if engine == "scalar":
        h = hierarchy if hierarchy is not None else CacheHierarchy(l2_enabled=l2_enabled)
        addrs, writes = spmv_address_trace(a, row_start, stop, no_x_miss, layout)
        totals = {"l1": 0, "l2": 0, "mem": 0}
        for _ in range(iterations):
            counts = h.access_trace(addrs, writes)
            for k in totals:
                totals[k] += counts[k]
        return TraceCounts(totals["l1"], totals["l2"], totals["mem"])

    # Disk memoization only applies to cold-hierarchy replays: a warm
    # hierarchy makes the result depend on state the key cannot see.
    memoize = hierarchy is None if use_disk_cache is None else (
        use_disk_cache and hierarchy is None
    )
    store = ContentStore(namespace="replay") if memoize else None
    key = ""
    if store is not None:
        key = _replay_cache_key(
            a, row_start, stop, iterations, no_x_miss, l2_enabled, layout, machine_key
        )
        entry = store.get_json(key)
        if entry is not None:
            if tracer:
                tracer.metrics.counter("replay.disk.hits").inc()
            return TraceCounts(
                int(entry["l1_hits"]), int(entry["l2_hits"]), int(entry["mem_misses"])
            )

    if hierarchy is not None and not isinstance(hierarchy, VectorCacheHierarchy):
        raise TypeError(
            "engine='vectorized' requires a VectorCacheHierarchy, got "
            f"{type(hierarchy).__name__}"
        )
    vh = hierarchy if hierarchy is not None else VectorCacheHierarchy(l2_enabled=l2_enabled)
    counts, detail = _replay_vectorized(
        a, row_start, stop, iterations, no_x_miss, layout, vh, chunk_accesses
    )
    if tracer:
        m = tracer.metrics
        if store is not None:
            m.counter("replay.disk.misses").inc()
        m.counter("replay.accesses").inc(detail["accesses"])
        m.counter("replay.simulated_iterations").inc(detail["simulated_iterations"])
        m.counter("replay.fastforward_iterations").inc(detail["fastforward_iterations"])
        m.counter("replay.steps").inc(detail["steps"])
        m.counter("replay.collapsed_hits").inc(detail["collapsed_hits"])
        m.counter("replay.tail_accesses").inc(detail["tail_accesses"])
    if store is not None:
        store.put_json(
            key,
            {
                "l1_hits": counts.l1_hits,
                "l2_hits": counts.l2_hits,
                "mem_misses": counts.mem_misses,
            },
        )
    return counts
