"""Serve-layer contract of ``mode="predict"``: the admission fast path.

A predict job resolves entirely at submit time — zero simulations, all
origins ``"predicted"``, the ``serve.predictions`` counter matching the
point count — and **never** persists its records: the content store is
the model/sim tiers' ledger, so resubmitting the very same grid in
``mode="model"`` must still simulate every point (no cross-mode
poisoning, the purity rule ``docs/PREDICTOR.md`` documents).
"""

from __future__ import annotations

import pytest

from repro.core.supervise import fork_context
from repro.machine.registry import get_machine
from repro.predict import train_predictor
from repro.serve import CampaignServer, CampaignSpec, ServeClient
from repro.store import ContentStore

pytestmark = pytest.mark.skipif(
    fork_context() is None,
    reason="the campaign server's supervised pool needs the fork start method",
)

SCALE = 0.05
ITERATIONS = 2


@pytest.fixture()
def server(tmp_path):
    # Seal a real artifact for the default machine first: the server's
    # worker answers predict jobs through the standard get_predictor
    # ladder, so the artifact must exist before the job is admitted.
    train_predictor(
        get_machine("scc-48"),
        (2, 7),
        core_counts=(1, 2, 4, 8),
        scale=SCALE,
        iterations=ITERATIONS,
        n_rounds=60,
    )
    srv = CampaignServer(tmp_path / "serve-data", workers=2)
    srv.start()
    yield srv
    srv.stop()


@pytest.fixture()
def client(server):
    return ServeClient(server.url)


def _spec(mode="predict"):
    return CampaignSpec(
        ids=(2, 7),
        core_counts=(1, 2, 4),
        machine="scc-48",
        scale=SCALE,
        iterations=ITERATIONS,
        mode=mode,
    )


def test_predict_job_resolves_at_admission(server, client):
    job = client.wait(str(client.submit(_spec())["job_id"]), timeout=60.0)
    assert job["state"] == "done"
    assert job["points"] == 6
    assert job["simulated"] == 0
    assert job["predicted"] == 6
    assert job["origin_predicted"] == 6
    assert job["dedup_hits"] == 0

    result = client.result(job["job_id"])
    records = result["records"]
    assert len(records) == 6
    assert all(rec.get("predicted") is True for rec in records)
    assert all(origin == "predicted" for origin in result["origins"])

    metrics = client.metrics()
    assert metrics["serve"]["predictions"] == 6
    assert metrics["serve"]["simulations"] == 0


def test_predicted_records_never_persisted_and_model_still_simulates(
    server, client
):
    predict_job = client.wait(
        str(client.submit(_spec())["job_id"]), timeout=60.0
    )
    assert predict_job["predicted"] == 6
    # Nothing landed in the serve-points namespace: the fast path does
    # not write records, and the key space is mode-disjoint anyway.
    assert ContentStore(namespace="serve-points").entry_count() == 0

    model_job = client.wait(
        str(client.submit(_spec(mode="model"))["job_id"]), timeout=300.0
    )
    assert model_job["simulated"] == 6
    assert model_job["predicted"] == 0
    assert model_job["dedup_hits"] == 0
    assert ContentStore(namespace="serve-points").entry_count() == 6

    metrics = client.metrics()
    assert metrics["serve"]["predictions"] == 6
    assert metrics["serve"]["simulations"] == 6
