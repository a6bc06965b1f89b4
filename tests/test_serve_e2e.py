"""Black-box end-to-end tests of the campaign server.

Everything here talks to a real :class:`repro.serve.CampaignServer`
bound to an ephemeral port over real HTTP — the exact surface a user
hits — and asserts the two service contracts of ``docs/SERVING.md``:

1. **correctness**: served records are bitwise-identical (canonical
   JSON) to a direct serial :meth:`Campaign.run` of the same grid, on
   every zoo machine;
2. **dedup**: resubmitting an identical spec answers entirely from the
   content store — the simulation count is zero.
"""

from __future__ import annotations

import json

import pytest

from repro.core.campaign import Campaign
from repro.core.supervise import fork_context
from repro.serve import CampaignServer, CampaignSpec, ServeClient, ServeError, SpecError

pytestmark = pytest.mark.skipif(
    fork_context() is None,
    reason="the campaign server's supervised pool needs the fork start method",
)

SCALE = 0.05
ITERATIONS = 2


@pytest.fixture()
def server(tmp_path):
    srv = CampaignServer(tmp_path / "serve-data", workers=2)
    srv.start()
    yield srv
    srv.stop()


@pytest.fixture()
def client(server):
    return ServeClient(server.url)


def _spec(machine="scc-48", **overrides):
    kwargs = dict(
        ids=(24,),
        core_counts=(1, 4),
        machine=machine,
        scale=SCALE,
        iterations=ITERATIONS,
        mode="model",
    )
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


def _serial_records(tmp_path, spec: CampaignSpec):
    """The ground truth: a direct serial campaign over the same grid."""
    campaign = Campaign(
        "baseline",
        output_dir=tmp_path / "baseline",
        scale=spec.scale,
        iterations=spec.iterations,
        mode=spec.mode,
        machine=spec.machine,
    )
    campaign.run(spec.points(), workers=1)
    return campaign.load()


def _canon(rec: dict) -> str:
    return json.dumps(rec, sort_keys=True)


@pytest.mark.parametrize("machine", ["scc-48", "xeonphi-61"])
def test_served_records_bitwise_identical_to_serial_campaign(
    tmp_path, server, client, machine
):
    spec = _spec(machine=machine)
    summary = client.submit(spec)
    result = client.wait(str(summary["job_id"]), timeout=300.0)

    baseline = _serial_records(tmp_path, spec)
    assert len(result["records"]) == len(baseline) == len(spec.points())
    assert [_canon(r) for r in result["records"]] == [_canon(r) for r in baseline]
    assert all(r["status"] == "ok" for r in result["records"])
    assert result["simulated"] == len(spec.points())
    assert result["dedup_hits"] == 0


@pytest.mark.parametrize("machine", ["scc-48", "xeonphi-61"])
def test_resubmission_answers_entirely_from_store(server, client, machine):
    spec = _spec(machine=machine)
    first = client.wait(str(client.submit(spec)["job_id"]), timeout=300.0)
    assert first["simulated"] == len(spec.points())

    second = client.wait(str(client.submit(spec)["job_id"]), timeout=60.0)
    assert second["simulated"] == 0
    assert second["dedup_hits"] == len(spec.points())
    assert all(origin == "store" for origin in second["origins"])
    assert [_canon(r) for r in second["records"]] == [
        _canon(r) for r in first["records"]
    ]
    # The server-side counter agrees: no new simulations happened.
    serve_metrics = client.metrics()["serve"]
    assert serve_metrics["simulations"] == len(spec.points())
    assert serve_metrics["dedup_hits"] == len(spec.points())


def test_dedup_is_keyed_by_machine(server, client):
    """The same grid on two machines must not share store entries."""
    first = client.wait(
        str(client.submit(_spec(machine="scc-48"))["job_id"]), timeout=300.0
    )
    second = client.wait(
        str(client.submit(_spec(machine="xeonphi-61"))["job_id"]), timeout=300.0
    )
    assert first["simulated"] == second["simulated"] == 2
    assert second["dedup_hits"] == 0
    assert [_canon(r) for r in first["records"]] != [
        _canon(r) for r in second["records"]
    ]


def test_submitting_a_bad_spec_is_a_400(client):
    with pytest.raises(ServeError) as excinfo:
        client._ok("POST", "/api/v1/jobs", {"spec": {"ids": [24]}})
    assert excinfo.value.status == 400
    with pytest.raises(ServeError) as excinfo:
        client._ok(
            "POST",
            "/api/v1/jobs",
            {"spec": {"ids": [24], "core_counts": [4], "mode": "warp-drive"}},
        )
    assert excinfo.value.status == 400
    assert "mode" in str(excinfo.value)


def test_spec_validation_rejects_impossible_grids():
    with pytest.raises(SpecError):
        CampaignSpec(ids=(24,), core_counts=(64,), machine="scc-48")  # > 48 cores
    with pytest.raises(SpecError):
        CampaignSpec(ids=(24,), core_counts=(4,), machine="xeonphi-61", mode="sim")
    with pytest.raises(SpecError):
        CampaignSpec(ids=(24,), core_counts=(4,), configs=("conf9",))
    with pytest.raises(SpecError):
        CampaignSpec(ids=(9999,), core_counts=(4,))


def test_unknown_job_and_path_are_404(client):
    with pytest.raises(ServeError) as excinfo:
        client.status("job-999999")
    assert excinfo.value.status == 404
    with pytest.raises(ServeError) as excinfo:
        client._ok("GET", "/api/v1/nope")
    assert excinfo.value.status == 404


def test_result_of_an_unfinished_job_is_409(server, client):
    # A job whose id doesn't exist yet distinguishes 404 from 409; an
    # in-flight one is racy to catch, so assert the mapping directly on
    # a job that's done (200) and a missing one (404) plus the running
    # case via the wait() loop which tolerates only 409s in between.
    spec = _spec()
    job_id = str(client.submit(spec)["job_id"])
    result = client.wait(job_id, timeout=300.0)  # only 409s tolerated inside
    assert result["state"] == "done"


def test_journal_recovery_restores_jobs_from_the_store(tmp_path):
    """A restarted server resumes journaled jobs as pure store hits."""
    data_dir = tmp_path / "serve-data"
    spec = _spec()

    first_srv = CampaignServer(data_dir, workers=2)
    first_srv.start()
    try:
        client = ServeClient(first_srv.url)
        job_id = str(client.submit(spec)["job_id"])
        first = client.wait(job_id, timeout=300.0)
    finally:
        first_srv.stop()

    second_srv = CampaignServer(data_dir, workers=2)
    second_srv.start()
    try:
        client = ServeClient(second_srv.url)
        recovered = client.wait(job_id, timeout=60.0)
        assert [_canon(r) for r in recovered["records"]] == [
            _canon(r) for r in first["records"]
        ]
        # Recovery replayed the journal against the store: no simulation.
        assert client.metrics()["serve"]["simulations"] == 0.0
    finally:
        second_srv.stop()


def test_health_and_metrics_endpoints(server, client):
    health = client.healthz()
    assert health["ok"] is True
    assert health["workers"] == 2
    spec = _spec()
    client.wait(str(client.submit(spec)["job_id"]), timeout=300.0)
    health = client.healthz()
    assert health["jobs"] == 1
    assert health["jobs_done"] == 1
    assert health["store_entries"] == len(spec.points())
    metrics = client.metrics()
    assert metrics["serve"]["jobs_done"] == 1.0
    assert metrics["supervise"]["tasks"] == len(spec.points())
    assert metrics["worker_health"]["batches"] >= 1
    assert metrics["worker_health"]["quarantined"] == 0
