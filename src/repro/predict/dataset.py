"""Training-set generation: mint labelled rows from our own model runs.

Unlike feature-based SpMV predictors trained on hardware measurements,
we own the oracle: any (matrix, machine, core count, mapping, config,
kernel) point can be labelled by running ``mode="model"`` (or the
trace-exact path on the SCC), so training data is unlimited and
deterministic.  :func:`labelled_rows` sweeps a campaign grid, extracts
the feature vector of every point through the *same*
:meth:`~repro.core.experiment.SpMVExperiment.point_feature_vector`
code path that serves predictions (no train/serve skew), and caches
the resulting ``(X, y)`` arrays in the store under the
``predict-train`` namespace keyed by the full grid identity.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..core.campaign import Campaign, CampaignContext, run_campaign_point
from ..machine.base import MachineModel
from ..sparse.features import FEATURE_SCHEMA_VERSION
from ..store import ContentStore, cache_enabled, digest_parts
from .artifact import PREDICT_MODEL_SCHEMA_VERSION, TRAIN_NAMESPACE

__all__ = ["DEFAULT_TRAIN_CORE_COUNTS", "labelled_rows", "training_set_key"]

#: default core-count sweep of a training grid; spans the contention
#: regimes (single core, half tile, saturated mesh) on every machine.
DEFAULT_TRAIN_CORE_COUNTS: Tuple[int, ...] = (1, 2, 4, 8, 16, 32)


def training_set_key(
    machine_key: str,
    ids: Sequence[int],
    core_counts: Sequence[int],
    configs: Sequence[str],
    mappings: Sequence[str],
    kernels: Sequence[str],
    scale: float,
    iterations: int,
    mode: str,
) -> str:
    """Content address of one grid's labelled rows."""
    return digest_parts(
        "predict-train",
        PREDICT_MODEL_SCHEMA_VERSION,
        FEATURE_SCHEMA_VERSION,
        machine_key,
        tuple(ids),
        tuple(core_counts),
        tuple(configs),
        tuple(mappings),
        tuple(kernels),
        scale,
        iterations,
        mode,
    )


def labelled_rows(
    machine: MachineModel,
    ids: Sequence[int],
    core_counts: Sequence[int] = DEFAULT_TRAIN_CORE_COUNTS,
    configs: Sequence[str] = ("conf0",),
    mappings: Sequence[str] = ("distance_reduction",),
    kernels: Sequence[str] = ("csr",),
    scale: float = 0.05,
    iterations: int = 4,
    mode: str = "model",
    use_store: bool = True,
    store: Optional[ContentStore] = None,
    experiments: Optional[Dict] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Sweep the grid in ``mode`` and return ``(X, y)`` training arrays.

    ``y`` is the regression target ``log(makespan / (nnz * iterations))``
    per point; points whose run fails (timeout/failure records) are
    skipped.  Core counts exceeding the machine are clamped out of the
    grid rather than erroring, so one grid spec serves the whole zoo.
    ``use_store`` round-trips the arrays through the ``predict-train``
    namespace; pass ``False`` to force a fresh sweep (the differential
    harness does, so its model-path wallclock is honest).
    ``experiments`` shares an experiment cache with the caller — the
    harness reuses it for feature extraction.
    """
    counts = tuple(n for n in core_counts if 1 <= n <= machine.n_cores)
    if not counts:
        raise ValueError(
            f"no valid core counts for machine {machine.machine_id!r} "
            f"in {tuple(core_counts)}"
        )
    key = training_set_key(
        machine.cache_key(), ids, counts, configs, mappings, kernels,
        scale, iterations, mode,
    )
    train_store = store if store is not None else ContentStore(namespace=TRAIN_NAMESPACE)
    if use_store and cache_enabled():
        cached = train_store.get_arrays(key)
        if cached is not None:
            return cached["X"], cached["y"]

    points = Campaign.grid(ids, counts, configs=configs, mappings=mappings, kernels=kernels)
    ctx = CampaignContext(
        scale=scale, iterations=iterations, mode=mode, machine=machine.machine_id
    )
    cache: Dict = experiments if experiments is not None else {}
    xs, ys = [], []
    for pt in points:
        rec = run_campaign_point(pt, ctx, cache)
        if rec.get("status") != "ok":
            continue
        exp = cache[(pt.mid, scale, machine.machine_id)]
        config = exp.machine.presets[pt.config]
        core_map, _name = exp._core_map(pt.mapping, pt.n_cores)
        xs.append(
            exp.point_feature_vector(pt.n_cores, core_map, config, pt.kernel, iterations)
        )
        ys.append(
            np.log(rec["makespan_s"] / (max(rec["nnz"], 1) * max(iterations, 1)))
        )
    if not xs:
        raise ValueError("training sweep produced no usable rows")
    x_arr = np.vstack(xs)
    y_arr = np.asarray(ys, dtype=np.float64)
    if use_store and cache_enabled():
        train_store.put_arrays(key, X=x_arr, y=y_arr)
    return x_arr, y_arr
