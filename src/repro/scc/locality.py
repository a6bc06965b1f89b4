"""Vectorized locality analysis: reuse times, footprint, miss ratios.

The irregular ``x[index[j]]`` gather of the CSR SpMV kernel is the one
access stream whose cache behaviour cannot be written down in closed
form (paper Sec. III / IV-C).  Simulating it address-by-address is
O(N) *Python* work per access — infeasible for the multi-million-nonzero
matrices of Table I.  Instead we use the higher-order theory of
locality (Xiang et al., "HOTL", ASPLOS'13):

1. compute the **reuse time** of every access (distance in accesses
   since the previous touch of the same cache line) — vectorized with
   one stable sort per stream, a radix sort for line ids below 2**16
   (:func:`stable_argsort`).  :func:`line_links` records
   each access's previous and next touch once; :func:`window_profile`
   then characterizes any contiguous window of the stream without
   sorting again, so the SpMV model sorts each matrix's ``x`` gather
   once and shares it across every core count (one window per UE).  A
   window profile counts its distinct lines up front and builds the
   reuse-time histogram only when step 3 reads it: a capacity that holds
   every distinct line misses only the cold ones;
2. convert the reuse-time histogram into the **average footprint**
   ``fp(w)`` — the mean number of distinct lines touched in any window
   of ``w`` consecutive accesses — via Xiang's O(N) formula;
3. predict a capacity-``C`` LRU cache miss for every access whose reuse
   window has footprint larger than ``C`` lines.  Since ``fp(w) <= w``,
   the largest window that fits is found on a short prefix of the
   curve: ``fp`` is evaluated on ``[0, top]`` only, doubling ``top``
   from ``2 * (floor(C) + 1)`` until the footprint exceeds ``C``.  Each
   doubling extends the prefix from the last bin it reached, and a
   second capacity (L2 after L1) first searches the prefix the first
   one built, so a window computes each footprint bin at most once.

Step 3 is exact for fully-associative LRU under the average-footprint
approximation and is a tight model for the SCC's 4-way pseudo-LRU L2;
``tests/test_scc_locality.py`` cross-validates it against the exact
simulator of :mod:`repro.scc.cache`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Tuple

import numpy as np

from .params import CACHE_LINE_BYTES

__all__ = [
    "lines_of_addresses",
    "stable_argsort",
    "line_links",
    "reuse_times",
    "ReuseProfile",
    "window_profile",
    "reuse_profile",
    "FootprintCurve",
    "footprint_curve",
    "MissRatioCurve",
    "miss_ratio_curve",
]


def lines_of_addresses(addrs: np.ndarray, line_bytes: int = CACHE_LINE_BYTES) -> np.ndarray:
    """Map byte addresses to cache-line ids."""
    if line_bytes <= 0:
        raise ValueError(f"line_bytes must be positive, got {line_bytes}")
    return np.asarray(addrs, dtype=np.int64) // line_bytes


def _link_dtype(n: int) -> type:
    """Narrowest index dtype that holds every link of an n-access stream."""
    return np.int32 if n < 2**31 else np.int64


def stable_argsort(keys: np.ndarray) -> np.ndarray:
    """Stable argsort of an integer array.

    NumPy radix-sorts 16-bit keys, so keys that all lie in ``[0, 2**16)``
    sort in one pass over ``uint16`` keys; any other keys take the
    comparison sort.  A stable sort's permutation is unique, so both
    branches return the same order, in the narrowest index dtype that
    holds every position (:func:`_link_dtype`).
    """
    dtype = _link_dtype(keys.size)
    if keys.size and keys.min() >= 0 and keys.max() < 1 << 16:
        keys = keys.astype(np.uint16)
    return np.argsort(keys, kind="stable").astype(dtype, copy=False)


def line_links(lines: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Previous and next touch of every access's line.

    Returns ``(prev, nxt)``: ``prev[i]`` is the index of the previous
    access to the line of access ``i`` (``-1`` if none) and ``nxt[i]``
    that of the next one (``n`` if none).  One stable sort groups the
    accesses by line in time order (:func:`stable_argsort`: a radix sort
    for line ids below 2**16).  Every window ``lines[lo:hi]`` is
    then characterized without sorting again (:func:`window_profile`):
    access ``i`` is a first touch iff ``prev[i] < lo``, a last touch iff
    ``nxt[i] >= hi``, and otherwise reuses after ``i - prev[i]``
    accesses.  The links are int32 whenever ``n < 2**31`` — half the
    memory of int64 on every realistic stream.
    """
    lines = np.asarray(lines).ravel()
    n = lines.size
    dtype = _link_dtype(n)
    prev = np.full(n, -1, dtype=dtype)
    nxt = np.full(n, n, dtype=dtype)
    if n == 0:
        return prev, nxt
    order = stable_argsort(lines)
    sorted_lines = lines[order]
    same = sorted_lines[1:] == sorted_lines[:-1]
    later = order[1:][same]
    earlier = order[:-1][same]
    prev[later] = earlier
    nxt[earlier] = later
    return prev, nxt


def reuse_times(lines: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-access reuse times of a line-id stream.

    Returns ``(rt, first_mask)`` where ``rt[i]`` is the number of
    accesses between access ``i`` and the previous access to the same
    line *inclusive of i* (so an immediate re-access has ``rt == 1``),
    and ``first_mask[i]`` marks cold (first-ever) accesses, whose ``rt``
    is 0 and meaningless.
    """
    prev, _nxt = line_links(lines)
    first = prev < 0
    rt = np.arange(prev.size, dtype=np.int64) - prev
    rt[first] = 0
    return rt, first


class ReuseProfile:
    """Summary of the window ``lines[lo:hi]`` of a linked stream.

    ``n_accesses`` and ``n_lines`` are counted up front.  The reuse
    histogram and the first and last times are built on first read:
    :meth:`MissRatioCurve.misses` reads none of them at a capacity of
    ``n_lines`` or more, the case of most windows.
    """

    def __init__(self, links: Tuple[np.ndarray, np.ndarray], lo: int, hi: int) -> None:
        prev, nxt = links
        if not 0 <= lo <= hi <= prev.size:
            raise ValueError(f"need 0 <= lo <= hi <= {prev.size}, got lo={lo}, hi={hi}")
        self._prev = prev[lo:hi]
        self._nxt = nxt[lo:hi]
        self._lo = lo
        self.n_accesses = hi - lo
        #: distinct lines (== cold misses): the window's first touches.
        self.n_lines = int(np.count_nonzero(self._prev < lo))

    @property
    def cold_misses(self) -> int:
        """First-touch misses (== distinct lines)."""
        return self.n_lines

    @cached_property
    def reuse_hist(self) -> np.ndarray:
        """``reuse_hist[t]``: accesses with reuse time ``t``, for ``t`` in ``0..n``."""
        p, lo = self._prev, self._lo
        rt = np.arange(lo, lo + p.size, dtype=p.dtype) - p
        return np.bincount(rt[p >= lo], minlength=p.size + 1).astype(np.int64, copy=False)

    @cached_property
    def first_times(self) -> np.ndarray:
        """1-based first-access times, ascending."""
        return np.flatnonzero(self._prev < self._lo) + 1

    @cached_property
    def last_times(self) -> np.ndarray:
        """1-based last-access times, ascending."""
        return np.flatnonzero(self._nxt >= self._lo + self.n_accesses) + 1


def window_profile(
    links: Tuple[np.ndarray, np.ndarray], lo: int = 0, hi: Optional[int] = None
) -> ReuseProfile:
    """Reuse profile of the window ``lines[lo:hi]`` from ``line_links(lines)``.

    Equal to ``reuse_profile(lines[lo:hi])``, with first and last times
    in time order, at the cost of one count over the window and no
    sort; each further field costs a few vectorized passes when first
    read.
    """
    return ReuseProfile(links, lo, links[0].size if hi is None else hi)


def reuse_profile(lines: np.ndarray) -> ReuseProfile:
    """Compute the full reuse profile of a line-id stream."""
    return window_profile(line_links(lines))


@dataclass(frozen=True)
class FootprintCurve:
    """Average footprint fp(w): mean distinct lines per window of w accesses."""

    n_accesses: int
    n_lines: int
    values: np.ndarray  # values[w] = fp(w) for w in 0..n_accesses

    def __call__(self, w: np.ndarray | int | float) -> np.ndarray:
        w_arr = np.clip(np.asarray(w, dtype=np.int64), 0, self.n_accesses)
        return self.values[w_arr]

    def window_for_capacity(self, capacity_lines: float) -> int:
        """Largest window w with fp(w) <= capacity (0 if even fp(1) > C)."""
        # fp is non-decreasing in w.
        idx = int(np.searchsorted(self.values, capacity_lines, side="right")) - 1
        return max(idx, 0)


class _FootprintPrefix:
    """The unclipped average footprint ``fp[w]`` of one window, from ``w = 0``.

    Xiang's formula for accesses numbered 1..n over m distinct lines::

        fp(w) = m - D(w) / (n + 1 - w),
        D(w)  = sum_{t>w} (t-w) * rt(t)
              + sum_k max(f_k - w, 0)
              + sum_k max(r_k - w, 0)

    where ``f_k`` is the first-access time of line k and
    ``r_k = n + 1 - last_k`` its reverse last-access time.  ``D`` is
    linear in the histogram, so the three histograms merge into one
    ``H``, and ``D(w) = (T1 - P1(w)) - w * (T0 - P0(w))`` with ``P0`` and
    ``P1`` the prefix sums of ``H[t]`` and ``t * H[t]``.  The totals need
    no pass at all: every access but a line's first is a reuse, so
    ``T0 = (n - m) + 2m``, and a line's reuse times telescope to
    ``last_k - f_k``, so ``T1 = m * (n + 1)``.

    :meth:`extend` computes the bins past the last one reached, carrying
    ``P0`` and ``P1`` forward as two int64 running sums, so each bin is
    computed once however often the prefix grows, at O(new bins) past
    the window profile.  The bins are kept as the chunks each call
    produced (joining them would copy the whole prefix on every call).

    ``D`` is exact int64, and every partial sum of it is an integer
    below ``3n**2``.  While ``3n**2 < 2**53`` (windows under ~5e7
    accesses; the largest suite window, at scale 1.0, is ~2.3e7) ``D`` is
    exact in a double too, so each ``fp`` is bitwise the same whatever
    order the three sums are taken in and however the bins are chunked.
    """

    def __init__(self, profile: ReuseProfile) -> None:
        self.profile = profile
        #: consecutive runs of ``fp``; the first starts at ``w = 0``.
        self.chunks: List[np.ndarray] = []
        #: the last bin computed (-1: none yet).
        self.reach = -1
        self._count = 0   # P0(reach)
        self._weight = 0  # P1(reach)

    def extend(self, top: int) -> np.ndarray:
        """Compute ``fp[reach + 1 .. top]``, keep it as a chunk and return it."""
        p = self.profile
        n, m = p.n_accesses, p.n_lines
        lo = self.reach + 1
        w = np.arange(lo, top + 1, dtype=np.int64)
        # First and last times are ascending: the bins in [lo, top] are a
        # run of the first times and a run of the last times.
        ft, lt = p.first_times, p.last_times
        firsts = ft[np.searchsorted(ft, lo) : np.searchsorted(ft, top, side="right")]
        lasts = lt[np.searchsorted(lt, n + 1 - top) : np.searchsorted(lt, n + 1 - lo, side="right")]
        hist = np.bincount(firsts - lo, minlength=w.size)
        hist += p.reuse_hist[lo : top + 1]
        hist += np.bincount(n + 1 - lo - lasts, minlength=w.size)
        count_above = np.cumsum(hist)
        count_above += self._count
        self._count = int(count_above[-1])
        np.subtract(n + m, count_above, out=count_above)
        deficit = np.cumsum(np.multiply(hist, w, out=hist), out=hist)
        deficit += self._weight
        self._weight = int(deficit[-1])
        np.subtract(m * (n + 1), deficit, out=deficit)
        deficit -= np.multiply(w, count_above, out=count_above)
        fp = np.true_divide(deficit, np.subtract(n + 1, w, out=w))
        np.subtract(m, fp, out=fp)
        if lo == 0:
            fp[0] = 0.0
        self.chunks.append(fp)
        self.reach = top
        return fp

    def first_over(self, capacity: float, top: int) -> Optional[int]:
        """The first ``w`` with ``fp[w] > capacity``; None if no ``w <= n``.

        Searches the chunks already computed, then extends the prefix to
        ``top`` and doubles it (past the reach) until a chunk holds an
        exceedance or the prefix covers the whole window.
        """
        start = 0
        for fp in self.chunks:
            over = fp > capacity
            if over.any():
                return start + int(over.argmax())
            start += fp.size
        n = self.profile.n_accesses
        while self.reach < n:
            while top <= self.reach:
                top *= 2
            over = self.extend(min(top, n)) > capacity
            if over.any():
                return start + int(over.argmax())
            start += over.size
        return None


def footprint_curve(profile: ReuseProfile) -> FootprintCurve:
    """The whole average-footprint curve ``fp(0..n)`` (:class:`_FootprintPrefix`)."""
    n, m = profile.n_accesses, profile.n_lines
    if n == 0:
        return FootprintCurve(0, 0, np.zeros(1, dtype=np.float64))
    fp = _FootprintPrefix(profile).extend(n)
    # Guard numerical noise: fp must be within [0, m] and non-decreasing.
    np.clip(fp, 0.0, float(m), out=fp)
    np.maximum.accumulate(fp, out=fp)
    return FootprintCurve(n, m, fp)


@dataclass(frozen=True)
class MissRatioCurve:
    """Predicted LRU misses of a stream as a function of cache capacity.

    The footprint is evaluated on demand and kept: a later capacity
    searches what an earlier one computed before extending it.  Use
    ``footprint_curve(mrc.profile)`` for the whole curve.
    """

    profile: ReuseProfile

    @cached_property
    def _prefix(self) -> _FootprintPrefix:
        return _FootprintPrefix(self.profile)

    def misses(self, capacity_lines: float) -> int:
        """Total predicted misses (cold + capacity) at the given capacity.

        An access misses when its reuse time exceeds ``w*``, the largest
        window whose footprint fits in the cache.  ``w*`` is searched on
        doubling prefixes of the curve (module docstring, step 3).
        """
        if math.isnan(capacity_lines):
            raise ValueError("capacity_lines must not be NaN")
        n, m = self.profile.n_accesses, self.profile.n_lines
        if capacity_lines <= 0:
            return n
        if capacity_lines >= m:
            return m  # fp <= m exactly, so every window fits
        # 0 < C < m: the first raw exceedance is the first of the clipped
        # running maximum, and fp(0) = 0 <= C keeps w* >= 0.
        first = self._prefix.first_over(capacity_lines, 2 * (int(capacity_lines) + 1))
        w_star = n if first is None else first - 1
        return m + int(self.profile.reuse_hist[w_star + 1 :].sum())

    def miss_ratio(self, capacity_lines: float) -> float:
        """Predicted misses divided by total accesses."""
        n = self.profile.n_accesses
        return self.misses(capacity_lines) / n if n else 0.0

    def curve(self, capacities: np.ndarray) -> np.ndarray:
        """Miss ratio evaluated at each capacity in the array."""
        return np.array([self.miss_ratio(c) for c in np.asarray(capacities)])


def miss_ratio_curve(
    lines: Optional[np.ndarray] = None,
    *,
    links: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    lo: int = 0,
    hi: Optional[int] = None,
) -> MissRatioCurve:
    """Build the full locality model of the line-id stream ``lines[lo:hi]``.

    Pass ``links=line_links(lines)`` instead of ``lines`` to model many
    windows of one stream with a single sort.
    """
    if (lines is None) == (links is None):
        raise TypeError("pass exactly one of lines and links")
    profile = window_profile(links if links is not None else line_links(lines), lo, hi)
    return MissRatioCurve(profile)
