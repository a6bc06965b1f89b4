"""Predictor training, artifact round-trip and fallback contracts.

Three guarantees the predict tier stands on:

* **determinism** — the same labelled rows always fit bit-identical
  models (no RNG anywhere in the regressor);
* **round-trip fidelity** — train → seal into the store → reload gives
  bitwise-identical predictions, and a corrupted artifact is
  quarantined by the store's sha256 seal rather than half-loaded;
* **fail-soft** — ``mode="predict"`` without a usable artifact answers
  via ``mode="model"`` after exactly one structured warning, and the
  ``predicted`` result flag tells callers which tier answered.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.core.experiment import SpMVExperiment
from repro.machine.registry import get_machine
from repro.predict import (
    MODEL_NAMESPACE,
    PredictFallbackWarning,
    clear_predictor_cache,
    fit_perf_regressor,
    get_predictor,
    labelled_rows,
    load_predictor,
    model_store_key,
    train_predictor,
)
from repro.sparse.suite import build_matrix, entry_by_id
from repro.store import ContentStore

MACHINE = get_machine("scc-48")
GRID = dict(core_counts=(1, 2, 4, 8), scale=0.05, iterations=2)


@pytest.fixture(scope="module")
def rows():
    """One small labelled grid, shared by every test in the module."""
    return labelled_rows(MACHINE, (2, 7), use_store=False, **GRID)


def test_fit_is_deterministic(rows):
    x, y = rows
    from repro.sparse.features import FEATURE_NAMES

    a = fit_perf_regressor(x, y, FEATURE_NAMES, n_rounds=80)
    b = fit_perf_regressor(x, y, FEATURE_NAMES, n_rounds=80)
    assert np.array_equal(a.coef, b.coef)
    assert a.intercept == b.intercept
    assert np.array_equal(a.stump_feature, b.stump_feature)
    assert np.array_equal(a.stump_threshold, b.stump_threshold)
    assert np.array_equal(a.predict(x), b.predict(x))


def test_in_sample_error_is_reported_and_small(rows):
    x, y = rows
    from repro.sparse.features import FEATURE_NAMES

    model = fit_perf_regressor(x, y, FEATURE_NAMES, n_rounds=120)
    assert model.train_rows == x.shape[0]
    assert model.train_stats["median_rel_err_pct"] < 10.0


def test_out_of_distribution_extrapolation_is_bounded(rows):
    """Features beyond the training envelope are clipped, so an extreme
    query predicts exactly what the clipped (in-envelope) point does —
    the linear stage can never run off to a nonsense makespan."""
    x, y = rows
    from repro.sparse.features import FEATURE_NAMES

    model = fit_perf_regressor(x, y, FEATURE_NAMES, n_rounds=80)
    extreme = model.x_max * 1e6 + 1e6  # far outside every feature's range
    clipped = np.clip(extreme, model.x_min, model.x_max)
    assert np.array_equal(model.predict(extreme), model.predict(clipped))
    # and the clipped prediction stays inside the training target range
    pad = 0.5 * (y.max() - y.min())
    assert y.min() - pad <= model.predict(extreme)[0] <= y.max() + pad


def test_artifact_roundtrip_bitwise(rows):
    x, _ = rows
    model, _ = train_predictor(MACHINE, (2, 7), n_rounds=80, **GRID)
    before = model.predict(x)
    clear_predictor_cache()
    loaded = get_predictor(MACHINE)
    assert loaded is not None
    assert np.array_equal(loaded.predict(x), before)
    assert loaded.feature_names == model.feature_names
    assert loaded.train_stats == model.train_stats


def test_corrupt_artifact_quarantined_then_fallback(rows):
    train_predictor(MACHINE, (2,), n_rounds=40, **GRID)
    store = ContentStore(namespace=MODEL_NAMESPACE)
    key = model_store_key(MACHINE.cache_key())
    path = store.path_for(key, "npz")
    assert path.exists()
    payload = bytearray(path.read_bytes())
    payload[len(payload) // 2] ^= 0xFF
    path.write_bytes(bytes(payload))
    clear_predictor_cache()
    assert load_predictor(MACHINE) is None
    # the seal mismatch moved the bundle aside; nothing half-loads later
    assert not path.exists()
    assert store.corrupt_count() >= 1


def test_missing_artifact_warns_exactly_once():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert get_predictor(MACHINE) is None
        assert get_predictor(MACHINE) is None
    fallback = [w for w in caught if issubclass(w.category, PredictFallbackWarning)]
    assert len(fallback) == 1
    assert "repro predict train" in str(fallback[0].message)


def test_mode_predict_falls_back_to_model():
    exp = SpMVExperiment(
        build_matrix(2, scale=0.05), name=entry_by_id(2).name, machine="scc-48"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PredictFallbackWarning)
        predicted = exp.run(n_cores=4, iterations=2, mode="predict")
    modeled = exp.run(n_cores=4, iterations=2, mode="model")
    assert not predicted.predicted  # the model tier answered
    assert predicted.makespan == modeled.makespan


def test_predicted_flag_in_records(rows):
    train_predictor(MACHINE, (2, 7), n_rounds=80, **GRID)
    exp = SpMVExperiment(
        build_matrix(2, scale=0.05), name=entry_by_id(2).name, machine="scc-48"
    )
    pred = exp.run(n_cores=4, iterations=2, mode="predict")
    assert pred.predicted
    assert pred.to_record()["predicted"] is True
    modeled = exp.run(n_cores=4, iterations=2, mode="model")
    assert "predicted" not in modeled.to_record()
    # the prediction lands within the gate's error budget on this point
    rel = abs(pred.makespan - modeled.makespan) / modeled.makespan
    assert rel < 0.25
