"""Feature extraction for ``mode="predict"``: matrix → vector.

The predictor (:mod:`repro.predict`) answers in microseconds what the
analytic model computes in milliseconds, and it can only do that
because the expensive part of a model run — the HOTL cache
characterization, O(nnz) per (matrix, machine, core count) — is
replaced by *structural features* computed once per matrix and reused
across every machine, core count, mapping and frequency point.

The extraction is layered to match that reuse:

* :class:`MatrixFeatures` — one O(nnz) pass over the pattern
  (:mod:`repro.sparse.stats` kernels): nnz/row moments + histogram,
  bandwidth/profile, block density, reuse proxies, plus the per-row
  column extents that later partition features reduce over;
* :func:`partition_features` — O(n_parts) per (matrix, core count):
  per-core nnz/row imbalance and ``x``-span footprints, reduced from
  the cached row extents;
* :func:`point_features` — O(n_cores) per point: machine clocks and
  cache-pressure ratios, mapping/topology placement (hops to the
  memory controller, per-MC load), kernel/iteration knobs.

``FEATURE_NAMES`` fixes the vector layout; ``FEATURE_SCHEMA_VERSION``
is baked into every trained artifact and training-set store key so a
layout change orphans stale models instead of silently misreading them.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .csr import CSRMatrix
from .partition import RowPartition
from .stats import (
    ROW_LENGTH_EDGES,
    bandwidth_stats,
    block_density,
    mean_std,
    partition_spans,
    reuse_proxies,
    row_extents,
    working_set_bytes,
)

__all__ = [
    "FEATURE_SCHEMA_VERSION",
    "FEATURE_NAMES",
    "MatrixFeatures",
    "matrix_features",
    "partition_features",
    "point_features",
]

#: bump whenever :data:`FEATURE_NAMES` (or any kernel's meaning)
#: changes — it participates in model-artifact and training-set store
#: keys, so old entries are orphaned rather than misinterpreted.
FEATURE_SCHEMA_VERSION = 1

_HIST_NAMES = [f"rowlen_hist_{i}" for i in range(len(ROW_LENGTH_EDGES) + 1)]

#: the full feature vector layout, in order.  Matrix-level features
#: first (constant per matrix), then partition-level (per core count),
#: then point-level (machine/config/mapping/kernel).
FEATURE_NAMES: List[str] = [
    # -- matrix level ----------------------------------------------------
    "log_n",
    "log_nnz",
    "log_density",
    "rowlen_mean",
    "rowlen_cv",
    "rowlen_max_frac",
    *_HIST_NAMES,
    "bw_mean_dist",
    "bw_max_dist",
    "bw_band_mean",
    "bw_profile_frac",
    "block_fill",
    "block_cv",
    "reuse_col",
    "reuse_line",
    "reuse_adj_gap",
    # -- partition level (per core count) --------------------------------
    "part_nnz_cv",
    "part_nnz_max_frac",
    "part_rows_cv",
    "part_rows_max_frac",
    "part_span_mean",
    "part_span_max",
    # -- point level (machine / config / mapping / kernel) ---------------
    "log_n_cores",
    "log_iterations",
    "log_core_mhz",
    "log_mesh_mhz",
    "log_mem_mhz",
    "log_core_per_mem",
    "l2_enabled",
    "kernel_no_x_miss",
    "map_hops_mean",
    "map_hops_max",
    "mc_load_cv",
    "mc_load_max_frac",
    "log_ws_part_l1",
    "log_ws_part_l2",
    "log_span_bytes_l1",
]


def _log(v: float) -> float:
    return float(np.log(max(float(v), 1e-12)))


@dataclass(frozen=True)
class MatrixFeatures:
    """One matrix's structural features plus the cached row extents.

    ``vector`` holds the matrix-level prefix of :data:`FEATURE_NAMES`;
    ``row_min_col``/``row_max_col`` are kept so partition reductions
    cost O(n_parts), not O(nnz).
    """

    vector: np.ndarray
    row_min_col: np.ndarray
    row_max_col: np.ndarray
    n: int
    nnz: int


#: matrix- and partition-level features depend only on the sparsity
#: pattern (and the row split), never on the machine — so one matrix
#: swept over the whole machine zoo pays its O(nnz) pass exactly once.
#: Keyed by object identity with the matrix kept alive in the entry
#: (recycled ids cannot alias); bounded FIFO so a long-lived serve
#: process cannot grow without limit.
_MF_MEMO: "OrderedDict[int, tuple]" = OrderedDict()
_PF_MEMO: "OrderedDict[tuple, tuple]" = OrderedDict()
_MEMO_CAP = 64


def matrix_features(a: CSRMatrix) -> MatrixFeatures:
    """The single O(nnz) extraction pass over one matrix (memoized)."""
    entry = _MF_MEMO.get(id(a))
    if entry is not None and entry[0] is a:
        return entry[1]
    mf = _matrix_features(a)
    _MF_MEMO[id(a)] = (a, mf)
    while len(_MF_MEMO) > _MEMO_CAP:
        _MF_MEMO.popitem(last=False)
    return mf


def _matrix_features(a: CSRMatrix) -> MatrixFeatures:
    lengths = a.row_lengths().astype(float)
    mean = lengths.mean() if a.n_rows else 0.0
    cv = float(lengths.std() / mean) if mean > 0 else 0.0
    max_frac = float(lengths.max() / mean) if mean > 0 else 0.0
    extents = row_extents(a)
    row_min, row_max, _ = extents
    bw = bandwidth_stats(a, extents=extents)
    bd = block_density(a)
    ru = reuse_proxies(a)
    from .stats import row_length_histogram

    hist = row_length_histogram(a)
    density = a.nnz / (a.n_rows * a.n_cols) if a.n_rows and a.n_cols else 0.0
    vec = np.array(
        [
            _log(a.n_rows),
            _log(a.nnz),
            _log(density),
            mean,
            cv,
            max_frac,
            *hist.tolist(),
            bw["mean_dist"],
            bw["max_dist"],
            bw["band_mean"],
            bw["profile_frac"],
            bd["fill"],
            bd["cv"],
            _log(ru["col_reuse"]),
            _log(ru["line_reuse"]),
            _log(1.0 + ru["adj_gap"]),
        ]
    )
    return MatrixFeatures(
        vector=vec,
        row_min_col=row_min,
        row_max_col=row_max,
        n=a.n_rows,
        nnz=a.nnz,
    )


@dataclass(frozen=True)
class PartitionFeatures:
    """Per-(matrix, core count) features + aggregates the point level needs."""

    vector: np.ndarray
    mean_span_elems: float
    max_span_elems: float
    n_parts: int


def partition_features(
    a: CSRMatrix, partition: RowPartition, mf: MatrixFeatures
) -> PartitionFeatures:
    """O(n_parts) reduction of the cached row extents over one partition.

    Memoized on ``(matrix identity, partition bounds)`` — the split is
    machine-independent, so the zoo shares one reduction per core count.
    """
    key = (id(a), partition.bounds)
    entry = _PF_MEMO.get(key)
    if entry is not None and entry[0] is a:
        return entry[1]
    pf = _partition_features(a, partition, mf)
    _PF_MEMO[key] = (a, pf)
    while len(_PF_MEMO) > _MEMO_CAP * 8:
        _PF_MEMO.popitem(last=False)
    return pf


def _partition_features(
    a: CSRMatrix, partition: RowPartition, mf: MatrixFeatures
) -> PartitionFeatures:
    from .stats import partition_imbalance

    imb = partition_imbalance(a, partition)
    spans = partition_spans(a, partition, mf.row_min_col, mf.row_max_col)
    n = max(mf.n, 1)
    mean_span = float(spans.mean()) if spans.size else 0.0
    max_span = float(spans.max()) if spans.size else 0.0
    vec = np.array(
        [
            imb["nnz_cv"],
            imb["nnz_max_frac"],
            imb["rows_cv"],
            imb["rows_max_frac"],
            mean_span / n,
            max_span / n,
        ]
    )
    return PartitionFeatures(
        vector=vec,
        mean_span_elems=mean_span,
        max_span_elems=max_span,
        n_parts=partition.n_parts,
    )


#: per-object memos for machine-level constants (topology hop/MC maps,
#: per-core clocks of a config).  Keyed by object identity with the
#: object kept alive in the entry, so a recycled ``id`` cannot alias —
#: machines and their presets are long-lived registry singletons.
_TOPO_MEMO: dict = {}
_CLOCK_MEMO: dict = {}


def _topo_arrays(machine) -> "tuple[np.ndarray, np.ndarray]":
    entry = _TOPO_MEMO.get(id(machine))
    if entry is not None and entry[0] is machine:
        return entry[1], entry[2]
    topo = machine.topology
    hops = np.array([topo.hops_to_mc(c) for c in range(machine.n_cores)], dtype=float)
    mcs = np.array(
        [topo.mc_index_of_core(c) for c in range(machine.n_cores)], dtype=np.int64
    )
    _TOPO_MEMO[id(machine)] = (machine, hops, mcs)
    return hops, mcs


def _clock_array(machine, config) -> np.ndarray:
    entry = _CLOCK_MEMO.get(id(config))
    if entry is not None and entry[0] is config:
        return entry[1]
    mhz = np.array(
        [config.core_mhz_of_core(c) for c in range(machine.n_cores)], dtype=float
    )
    _CLOCK_MEMO[id(config)] = (config, mhz)
    return mhz


def point_features(
    mf: MatrixFeatures,
    pf: PartitionFeatures,
    machine,
    config,
    core_map: Sequence[int],
    kernel: str,
    iterations: int,
) -> np.ndarray:
    """Assemble the full feature vector for one campaign point.

    ``machine`` is a :class:`repro.machine.base.MachineModel`;
    ``config`` one of its presets.  Cost is O(n_cores) — array gathers
    over memoized per-machine topology/clock maps — so a full sweep's
    point features are negligible next to even one partition pass.
    """
    n_cores = len(core_map)
    hops_all, mcs_all = _topo_arrays(machine)
    cm = np.asarray(core_map, dtype=np.intp)
    hops = hops_all[cm]
    mc_load = np.bincount(mcs_all[cm]).astype(float)
    mc_load = mc_load[mc_load > 0]
    mc_mean, mc_std = mean_std(mc_load) if mc_load.size else (0.0, 0.0)
    cache = machine.cache
    ws_part = working_set_bytes(mf.n, mf.nnz) / max(n_cores, 1)
    span_bytes = pf.mean_span_elems * 8.0
    # mean mapped-core clock: exact for uniform configs, and the right
    # aggregate for the SCC's per-tile frequency vectors.
    core_mhz = float(_clock_array(machine, config)[cm].mean()) if n_cores else 0.0
    point = np.array(
        [
            _log(n_cores),
            _log(iterations),
            _log(core_mhz),
            _log(config.mesh_mhz),
            _log(config.mem_mhz),
            _log(core_mhz / max(config.mem_mhz, 1e-12)),
            1.0 if config.l2_enabled else 0.0,
            1.0 if kernel == "no_x_miss" else 0.0,
            float(hops.mean()) if hops.size else 0.0,
            float(hops.max()) if hops.size else 0.0,
            float(mc_std / mc_mean) if mc_mean > 0 else 0.0,
            float(mc_load.max() / mc_mean) if mc_mean > 0 else 1.0,
            _log(ws_part / max(cache.l1_bytes, 1)),
            _log(ws_part / max(cache.l2_bytes, 1)),
            _log(max(span_bytes, 1.0) / max(cache.l1_bytes, 1)),
        ]
    )
    vec = np.concatenate([mf.vector, pf.vector, point])
    if vec.size != len(FEATURE_NAMES):  # pragma: no cover - layout guard
        raise AssertionError(
            f"feature vector has {vec.size} entries, schema names "
            f"{len(FEATURE_NAMES)} — update FEATURE_NAMES and bump "
            "FEATURE_SCHEMA_VERSION together"
        )
    return vec
