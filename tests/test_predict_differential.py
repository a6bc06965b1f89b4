"""Differential harness: predict vs model (and exact-trace) error bounds.

The acceptance bar of the predict tier is *quantified*, not asserted:
:func:`repro.predict.harness.differential_report` trains a fresh
predictor per machine on a ``mode="model"`` sweep and replays the same
grid through ``mode="predict"``.  These tests pin the error contract
(median relative makespan error within the gate's 10% budget on every
machine-zoo member, and close to the SCC exact-trace tier as well) and
the purity contract (a predict sweep writes nothing to the content
store).  The 100x wall-clock speedup is deliberately *not* asserted
here — unit-test machines are noisy; the ``predict_speedup`` row of
``repro bench gate`` owns that number.
"""

from __future__ import annotations

import pytest

from repro.predict.harness import differential_report
from repro.store import ContentStore

ZOO = ("scc-48", "xeonphi-61", "ft2000plus-64")


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    # A module fixture is built before the function-scoped autouse
    # cache-dir fixture, so it points the store at a directory of its
    # own; the counts are captured inside that same sandbox.
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("repro-cache")))
        rep = differential_report(
            machine_ids=ZOO,
            ids=(2, 7),
            core_counts=(1, 2, 4, 8, 16),
            scale=0.05,
            iterations=2,
            n_rounds=100,
            include_exact=True,
            exact_ids=(2,),
            exact_core_counts=(2, 8),
        )
        rep["_store_counts"] = {
            ns: ContentStore(namespace=ns).entry_count()
            for ns in ("serve-points", "predict-models")
        }
    return rep


def test_every_machine_within_error_budget(report):
    assert set(report["machines"]) == set(ZOO)
    for machine_id, m in report["machines"].items():
        assert m["n_points"] == 10
        assert m["median_rel_err_pct"] <= 10.0, machine_id
        assert m["p90_rel_err_pct"] <= 25.0, machine_id


def test_predict_is_faster_than_model(report):
    # The real >=100x bound lives in the bench gate; here only sanity.
    for machine_id, m in report["machines"].items():
        assert m["speedup"] > 1.0, machine_id
    agg = report["aggregate"]
    assert agg["t_predict_s"] < agg["t_model_s"]
    assert agg["worst_median_rel_err_pct"] <= 10.0


def test_predict_tracks_exact_trace_on_scc(report):
    exact = report["machines"]["scc-48"]["exact"]
    assert exact["n_points"] == 2
    # exact-trace and model disagree by a few percent themselves, so
    # the budget here is looser than the predict-vs-model bound.
    assert exact["median_rel_err_pct"] <= 15.0


def test_predict_sweep_writes_nothing_to_store(report):
    # The harness trained and predicted across the whole zoo above; the
    # serve-points namespace (the only place campaign records persist)
    # must still be empty, and no model artifact was sealed either —
    # the harness installs predictors in-process only.
    assert report["_store_counts"] == {"serve-points": 0, "predict-models": 0}
