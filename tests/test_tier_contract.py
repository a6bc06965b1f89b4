"""Every answer tier of ``SpMVExperiment.run`` honours one result contract.

The tiers — ``sim``, ``model``, ``exact-trace`` and ``predict`` (with a
trained artifact, or falling back to ``model`` without one) — differ
only in how the makespan is obtained.  The record shape, the ``verify``
product and the simulated-time budget behave the same in every tier.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.core.experiment import SpMVExperiment
from repro.machine.registry import get_machine
from repro.predict import (
    PredictFallbackWarning,
    fit_perf_regressor,
    install_predictor,
    labelled_rows,
)
from repro.rcce.errors import RCCEBudgetExceededError
from repro.sparse.features import FEATURE_NAMES
from repro.sparse.suite import build_matrix, entry_by_id

MACHINE = get_machine("scc-48")
MID = 2
SCALE = 0.05
N_CORES = 4
ITERATIONS = 2
#: ``predict`` has an installed artifact; ``predict-fallback`` has none.
TIERS = ("sim", "model", "exact-trace", "predict", "predict-fallback")


@pytest.fixture(scope="module")
def regressor():
    x, y = labelled_rows(
        MACHINE, (2, 7), use_store=False,
        core_counts=(1, 2, 4, 8), scale=SCALE, iterations=ITERATIONS,
    )
    return fit_perf_regressor(x, y, FEATURE_NAMES, n_rounds=40)


@pytest.fixture(scope="module")
def exp():
    return SpMVExperiment(
        build_matrix(MID, scale=SCALE), name=entry_by_id(MID).name, machine=MACHINE
    )


@pytest.fixture(params=TIERS)
def tier(request, regressor):
    if request.param == "predict":
        install_predictor(MACHINE, regressor)
    return request.param


def _run(exp, tier, **kw):
    mode = "predict" if tier.startswith("predict") else tier
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PredictFallbackWarning)
        result = exp.run(n_cores=N_CORES, iterations=ITERATIONS, mode=mode, **kw)
    assert result.predicted == (tier == "predict")
    return result


def test_records_share_one_shape(exp, tier):
    rec = _run(exp, tier).to_record()
    reference = exp.run(n_cores=N_CORES, iterations=ITERATIONS, mode="model").to_record()
    # Only the predict tier marks its records; every other key is shared.
    assert ("predicted" in rec) == (tier == "predict")
    assert [k for k in rec if k != "predicted"] == list(reference)
    assert rec["status"] == "ok"
    assert rec["makespan_s"] > 0


def test_verify_matches_scipy(exp, tier):
    x = np.random.default_rng(5).uniform(size=exp.a.n_cols)
    result = _run(exp, tier, verify=True, x=x)
    np.testing.assert_allclose(result.y, exp.a.to_scipy() @ x, rtol=1e-9)
    assert _run(exp, tier).y is None


def test_budget_below_makespan_raises(exp, tier):
    makespan = _run(exp, tier).makespan
    with pytest.raises(RCCEBudgetExceededError) as err:
        _run(exp, tier, time_budget=0.5 * makespan)
    assert err.value.budget == 0.5 * makespan
    assert err.value.running_ues
    # a budget above the makespan changes nothing
    assert _run(exp, tier, time_budget=2.0 * makespan).makespan == makespan
