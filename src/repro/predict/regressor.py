"""A small dependency-free regressor: ridge + gradient-boosted stumps.

Everything is plain NumPy and fully deterministic: the ridge solve is a
closed-form ``np.linalg.solve`` on standardized features, and the
boosting stage fits depth-1 stumps on quantile-binned features with
ties broken by lowest (feature, bin) index — no RNG anywhere, so the
same training rows always produce bit-identical models and therefore
bit-identical predictions (the artifact round-trip contract in
``tests/test_predict_model.py``).

The two stages split the work the way the target demands: the ridge
captures the smooth log-linear trends (throughput vs. clocks, nnz,
core count), the stumps mop up the thresholdy remainder (working set
crossing a cache level, an MC saturating).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

__all__ = ["PerfRegressor", "fit_perf_regressor"]

#: quantile bins per feature for the stump threshold search; 32 keeps
#: the search O(rounds * features * (rows + 32)) while resolving every
#: split a few-hundred-row training set can support.
N_BINS = 32


@dataclass(frozen=True)
class PerfRegressor:
    """Ridge + boosted-stump ensemble over one machine's feature space.

    ``predict`` returns the target ``log(makespan / (nnz * iterations))``;
    :meth:`predict_makespan` undoes the normalization.  All state is a
    handful of flat arrays, so (de)serialization is a plain npz bundle.
    """

    feature_names: List[str]
    #: training envelope: inference features are clipped into
    #: [x_min, x_max] per feature, so an out-of-distribution query
    #: degrades to the nearest training regime instead of letting the
    #: linear stage extrapolate (a matrix far outside the training set
    #: used to standardize to huge z-scores and blow the prediction up
    #: by orders of magnitude; stumps already clamp by construction).
    x_min: np.ndarray
    x_max: np.ndarray
    #: standardization of the ridge stage (stumps threshold raw values).
    mean: np.ndarray
    scale: np.ndarray
    coef: np.ndarray
    intercept: float
    #: stump ensemble, parallel arrays (possibly empty).
    stump_feature: np.ndarray  # int32[k]
    stump_threshold: np.ndarray  # float64[k]
    stump_left: np.ndarray  # float64[k], value when x[f] <= threshold
    stump_right: np.ndarray  # float64[k]
    train_rows: int = 0
    train_stats: Dict[str, float] = field(default_factory=dict)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Target values for a (rows, features) matrix or a single row."""
        x2 = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x2.shape[1] != len(self.feature_names):
            raise ValueError(
                f"feature width {x2.shape[1]} != model width {len(self.feature_names)}"
            )
        # np.clip's value, minus its Python-level dispatch (per point).
        x2 = np.minimum(np.maximum(x2, self.x_min), self.x_max)
        xs = (x2 - self.mean) / self.scale
        pred = xs @ self.coef + self.intercept
        if self.stump_feature.size:
            cond = x2[:, self.stump_feature] <= self.stump_threshold[None, :]
            pred = pred + self.stump_right.sum() + cond @ (self.stump_left - self.stump_right)
        return pred

    def predict_makespan(self, x: np.ndarray, nnz: int, iterations: int) -> float:
        """Seconds for one point: ``exp(target) * nnz * iterations``."""
        return float(np.exp(self.predict(x)[0])) * max(nnz, 1) * max(iterations, 1)

    # -- flat-array (de)serialization ------------------------------------

    def to_arrays(self) -> Dict[str, np.ndarray]:
        """The model as named arrays (the npz artifact payload)."""
        return {
            "x_min": self.x_min,
            "x_max": self.x_max,
            "mean": self.mean,
            "scale": self.scale,
            "coef": self.coef,
            "intercept": np.array([self.intercept]),
            "stump_feature": self.stump_feature.astype(np.int32),
            "stump_threshold": self.stump_threshold,
            "stump_left": self.stump_left,
            "stump_right": self.stump_right,
        }

    @classmethod
    def from_arrays(
        cls,
        arrays: Dict[str, np.ndarray],
        feature_names: List[str],
        train_rows: int = 0,
        train_stats: Dict[str, float] | None = None,
    ) -> "PerfRegressor":
        return cls(
            feature_names=list(feature_names),
            x_min=np.asarray(arrays["x_min"], dtype=np.float64),
            x_max=np.asarray(arrays["x_max"], dtype=np.float64),
            mean=np.asarray(arrays["mean"], dtype=np.float64),
            scale=np.asarray(arrays["scale"], dtype=np.float64),
            coef=np.asarray(arrays["coef"], dtype=np.float64),
            intercept=float(np.asarray(arrays["intercept"]).ravel()[0]),
            stump_feature=np.asarray(arrays["stump_feature"], dtype=np.int32),
            stump_threshold=np.asarray(arrays["stump_threshold"], dtype=np.float64),
            stump_left=np.asarray(arrays["stump_left"], dtype=np.float64),
            stump_right=np.asarray(arrays["stump_right"], dtype=np.float64),
            train_rows=train_rows,
            train_stats=dict(train_stats or {}),
        )


def _fit_ridge(xs: np.ndarray, y: np.ndarray, l2: float) -> tuple:
    """Closed-form ridge on standardized features (intercept unpenalized)."""
    n, d = xs.shape
    xa = np.hstack([xs, np.ones((n, 1))])
    gram = xa.T @ xa
    reg = np.eye(d + 1) * l2
    reg[d, d] = 0.0
    beta = np.linalg.solve(gram + reg, xa.T @ y)
    return beta[:d], float(beta[d])


def fit_perf_regressor(
    x: np.ndarray,
    y: np.ndarray,
    feature_names: List[str],
    n_rounds: int = 300,
    learning_rate: float = 0.1,
    l2: float = 1e-2,
) -> PerfRegressor:
    """Fit the two-stage model on (rows, features) / target arrays.

    The stump stage bins every feature into at most :data:`N_BINS`
    quantile buckets once, then each boosting round scans every
    feature's per-bin residual sums (prefix sums of two ``bincount``
    calls) for the split with the largest SSE reduction.  Left/right
    leaf values are the shrunken mean residuals.  Rounds that cannot
    improve any split stop the loop early.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError(f"bad training shapes x{x.shape} y{y.shape}")
    n, d = x.shape
    if n < 2:
        raise ValueError(f"need at least 2 training rows, got {n}")
    if d != len(feature_names):
        raise ValueError(f"x has {d} features, names list {len(feature_names)}")

    mean = x.mean(axis=0)
    std = x.std(axis=0)
    scale = np.where(std > 1e-12, std, 1.0)
    xs = (x - mean) / scale
    coef, intercept = _fit_ridge(xs, y, l2)
    residual = y - (xs @ coef + intercept)

    # -- quantile binning (once) -----------------------------------------
    qs = np.linspace(0.0, 1.0, N_BINS + 1)[1:-1]
    bins = np.zeros((n, d), dtype=np.int64)
    edges: List[np.ndarray] = []
    for j in range(d):
        cuts = np.unique(np.quantile(x[:, j], qs))
        edges.append(cuts)
        if cuts.size:
            # side="left" makes bin(b) <= k exactly the predict-time
            # condition x <= cuts[k] (ties go left in both places).
            bins[:, j] = np.searchsorted(cuts, x[:, j], side="left")
    counts = [np.bincount(bins[:, j], minlength=edges[j].size + 1) for j in range(d)]
    cum_counts = [np.cumsum(c[:-1]) for c in counts]  # rows on the left of each cut

    s_feature: List[int] = []
    s_threshold: List[float] = []
    s_left: List[float] = []
    s_right: List[float] = []
    for _ in range(max(0, n_rounds)):
        total = residual.sum()
        best_gain = 1e-15
        best = None
        for j in range(d):
            cuts = edges[j]
            if not cuts.size:
                continue
            sums = np.bincount(bins[:, j], weights=residual, minlength=cuts.size + 1)
            left_sum = np.cumsum(sums[:-1])
            left_n = cum_counts[j]
            right_n = n - left_n
            valid = (left_n > 0) & (right_n > 0)
            if not valid.any():
                continue
            right_sum = total - left_sum
            gain = np.where(
                valid, left_sum**2 / np.maximum(left_n, 1) + right_sum**2 / np.maximum(right_n, 1), -np.inf
            )
            k = int(np.argmax(gain))
            g = gain[k] - total**2 / n
            if g > best_gain:
                best_gain = g
                best = (j, k, left_sum[k] / left_n[k], right_sum[k] / right_n[k])
        if best is None:
            break
        j, k, lmean, rmean = best
        s_feature.append(j)
        s_threshold.append(float(edges[j][k]))
        s_left.append(learning_rate * lmean)
        s_right.append(learning_rate * rmean)
        side = x[:, j] <= edges[j][k]
        residual = residual - np.where(side, s_left[-1], s_right[-1])

    model = PerfRegressor(
        feature_names=list(feature_names),
        x_min=x.min(axis=0),
        x_max=x.max(axis=0),
        mean=mean,
        scale=scale,
        coef=coef,
        intercept=intercept,
        stump_feature=np.asarray(s_feature, dtype=np.int32),
        stump_threshold=np.asarray(s_threshold, dtype=np.float64),
        stump_left=np.asarray(s_left, dtype=np.float64),
        stump_right=np.asarray(s_right, dtype=np.float64),
        train_rows=n,
    )
    pred = model.predict(x)
    rel = 100.0 * np.abs(np.expm1(pred - y))
    model.train_stats.update(
        {
            "median_rel_err_pct": float(np.median(rel)),
            "p90_rel_err_pct": float(np.percentile(rel, 90)),
            "max_rel_err_pct": float(rel.max()),
            "stumps": float(len(s_feature)),
        }
    )
    return model
