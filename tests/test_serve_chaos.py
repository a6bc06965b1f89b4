"""Chaos tests of the campaign server (the ``repro chaos --serve`` leg).

Worker SIGKILLs, poison points and store bit flips land on a live
server; the PR 7 ladder semantics must hold end to end: in-flight jobs
complete or quarantine, quarantines are never persisted (so they retry
on resubmission), and the server process never dies.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core.supervise import CHAOS_ENV, SupervisePolicy, fork_context
from repro.chaos import chaos_main
from repro.serve import CampaignServer, CampaignSpec, ServeClient
from repro.serve.protocol import point_store_key

pytestmark = pytest.mark.skipif(
    fork_context() is None,
    reason="chaos injection needs fork-pool workers to kill",
)

SCALE = 0.05
ITERATIONS = 2

FAST_POLICY = SupervisePolicy(
    task_timeout=10.0, max_retries=2, backoff_base=0.01, on_failure="quarantine"
)


def _spec(core_counts=(1, 4)):
    return CampaignSpec(
        ids=(24,),
        core_counts=tuple(core_counts),
        scale=SCALE,
        iterations=ITERATIONS,
        mode="model",
    )


@pytest.fixture()
def chaos_env(monkeypatch):
    """Set the chaos schedule via env (workers inherit it at fork)."""

    def apply(schedule: dict) -> None:
        monkeypatch.setenv(CHAOS_ENV, json.dumps(schedule))

    yield apply
    monkeypatch.delenv(CHAOS_ENV, raising=False)


def test_transient_worker_kill_mid_job_recovers(tmp_path, chaos_env):
    spec = _spec()
    victim = spec.points()[0].key()
    chaos_env({victim: {"action": "kill", "attempts": [1]}})
    server = CampaignServer(tmp_path / "serve-data", workers=2, policy=FAST_POLICY)
    server.start()
    client = ServeClient(server.url)
    try:
        result = client.wait(
            str(client.submit(spec)["job_id"]), timeout=300.0
        )
        assert result["quarantined"] == 0
        assert all(r["status"] == "ok" for r in result["records"])
        metrics = client.metrics()
        assert metrics["supervise"]["worker_crashes"] >= 1
        assert metrics["worker_health"]["failures"].get("crash", 0) >= 1
        assert client.healthz()["ok"] is True
    finally:
        client.close()
        server.stop()


def test_poison_point_quarantines_and_stays_retryable(tmp_path, chaos_env, monkeypatch):
    spec = _spec()
    poison = spec.points()[1].key()
    chaos_env({poison: {"action": "kill", "attempts": "all"}})
    server = CampaignServer(tmp_path / "serve-data", workers=2, policy=FAST_POLICY)
    server.start()
    client = ServeClient(server.url)
    try:
        result = client.wait(str(client.submit(spec)["job_id"]), timeout=300.0)
        assert result["quarantined"] == 1
        statuses = [r["status"] for r in result["records"]]
        assert statuses.count("quarantined") == 1
        # The quarantine was not persisted: only the survivor is stored.
        assert client.healthz()["store_entries"] == len(spec.points()) - 1
        assert client.metrics()["worker_health"]["quarantined"] == 1

        # Clear the chaos; resubmission retries exactly the poison point,
        # on the same workers, without a single crash.
        crashes = client.metrics()["supervise"]["worker_crashes"]
        monkeypatch.delenv(CHAOS_ENV)
        retry = client.wait(str(client.submit(spec)["job_id"]), timeout=300.0)
        assert client.metrics()["supervise"]["worker_crashes"] == crashes
        assert retry["quarantined"] == 0
        assert retry["simulated"] == 1
        assert retry["dedup_hits"] == len(spec.points()) - 1
        assert all(r["status"] == "ok" for r in retry["records"])
        assert client.healthz()["ok"] is True
    finally:
        client.close()
        server.stop()


def test_bitflipped_store_entry_is_requarantined_and_resimulated(tmp_path):
    spec = _spec()
    server = CampaignServer(tmp_path / "serve-data", workers=2, policy=FAST_POLICY)
    server.start()
    client = ServeClient(server.url)
    try:
        first = client.wait(str(client.submit(spec)["job_id"]), timeout=300.0)

        target = spec.points()[0]
        path = server.store.path_for(
            point_store_key(target, spec.context()), "json"
        )
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        path.write_bytes(bytes(blob))

        second = client.wait(str(client.submit(spec)["job_id"]), timeout=300.0)
        assert second["simulated"] == 1  # only the corrupted point
        assert second["dedup_hits"] == len(spec.points()) - 1
        assert [json.dumps(r, sort_keys=True) for r in second["records"]] == [
            json.dumps(r, sort_keys=True) for r in first["records"]
        ]
        health = client.healthz()
        assert health["ok"] is True
        assert health["store_corrupt"] == 1
    finally:
        client.close()
        server.stop()


def test_chaos_cli_serve_scenario_holds_every_invariant(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = chaos_main(
        [
            "--serve",
            "--seed",
            "0",
            "--scale",
            "0.05",
            "--iterations",
            "2",
            "--skip-store-leg",
            "--json",
            "--output",
            str(tmp_path / "chaos.json"),
        ]
    )
    assert rc == 0
    report = json.loads((tmp_path / "chaos.json").read_text())
    assert report["ok"] is True
    assert report["serve_leg"]["poison"] == report["serve_leg"]["quarantined"]
    assert report["serve_leg"]["resubmit"]["quarantined"] == 0
    assert os.path.exists(tmp_path / "chaos.json")
