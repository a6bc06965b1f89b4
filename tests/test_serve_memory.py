"""What a long-lived campaign server keeps in memory.

Two bounds keep a server's footprint from growing with its history:

* a finished :class:`~repro.serve.queue.Job` shrinks to its encoded
  answer, and ``GET /jobs/<id>/result`` still returns exactly the bytes
  ``json.dumps({**summary, "records": ..., "origins": ...})`` gives;
* the experiment memo a worker keeps across batches is a bounded
  least-recently-used :class:`~repro.serve.protocol.ExperimentMemo`,
  and an evicted experiment rebuilds to bitwise-identical answers.
"""

from __future__ import annotations

import gc
import json
import pathlib
import tracemalloc
import urllib.request

import pytest

from repro.core.supervise import CHAOS_ENV, SupervisePolicy, fork_context
from repro.serve import CampaignServer, CampaignSpec, PointQueue, ServeClient
from repro.serve.protocol import MEMO_CAPACITY, ExperimentMemo, execute_point
from repro.sparse.suite import build_matrix
from repro.store import ContentStore

SCALE = 0.05
ITERATIONS = 2


def _spec(core_counts=(1, 4), ids=(24,), iterations=ITERATIONS):
    return CampaignSpec(
        ids=tuple(ids),
        core_counts=tuple(core_counts),
        scale=SCALE,
        iterations=iterations,
        mode="model",
    )


def _raw_result(server: CampaignServer, job_id: str) -> bytes:
    with urllib.request.urlopen(f"{server.url}/api/v1/jobs/{job_id}/result") as resp:
        return resp.read()


def _dict_encoding(server: CampaignServer, job_id: str) -> bytes:
    """The result body as the server encoded it from the job's dicts."""
    job = server.queue.job(job_id)
    return json.dumps(
        {**job.summary(), "records": job.records, "origins": job.origins}
    ).encode()


# -- the compact finished job ------------------------------------------------


def test_finished_job_keeps_only_its_answer(tmp_path):
    queue = PointQueue(ContentStore(root=tmp_path / "cache", namespace="t"))
    job = queue.submit(_spec())
    assert len(job.keys) == 2 and job.state == "queued"
    records = {}
    for key, pt, _ctx in queue.claim_batch(timeout=0.01):
        records[key] = {"status": "ok", "n_cores": pt.n_cores, "x": 0.1 + pt.n_cores}
        queue.complete(key, dict(records[key]))
    assert job.done.is_set() and job.state == "done"
    assert job.points == () and job.keys == ()
    assert job.records == [{"status": "ok", "n_cores": n, "x": 0.1 + n} for n in (1, 4)]
    assert job.origins == ["simulated", "simulated"]
    assert job.summary()["completed"] == job.summary()["points"] == 2


def test_finished_two_point_jobs_retain_under_1_5_kb_each(tmp_path):
    queue = PointQueue(ContentStore(root=tmp_path / "cache", namespace="t"))
    spec = _spec()
    template = [execute_point(pt, spec.context(), {}) for pt in spec.points()]

    def serve(first_iteration: int, n_jobs: int) -> None:
        for i in range(n_jobs):
            job = queue.submit(_spec(iterations=first_iteration + i))
            batch = queue.claim_batch(timeout=0.01)
            for (key, _pt, _ctx), rec in zip(batch, template):
                # A fresh dict per point, as a worker's unpickled result is.
                queue.complete(key, json.loads(json.dumps(rec)), persist=False)
            assert job.done.is_set()

    serve(1000, 20)  # warm the queue's tables and the interpreter's caches
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        serve(2000, 500)
        gc.collect()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    # pathlib interns every store key the queue looks up, once per
    # process; a resize of the interned-string table is not job state.
    interned = [tracemalloc.Filter(False, pathlib.__file__)]
    retained = sum(
        stat.size_diff
        for stat in after.filter_traces(interned).compare_to(
            before.filter_traces(interned), "filename"
        )
    )
    assert retained / 500 < 1500


@pytest.mark.skipif(
    fork_context() is None,
    reason="the campaign server's supervised pool needs the fork start method",
)
def test_result_body_is_the_dict_encoding_for_model_and_quarantined_jobs(
    tmp_path, monkeypatch
):
    spec = _spec()
    poison = spec.points()[1].key()
    policy = SupervisePolicy(task_timeout=10.0, max_retries=0, on_failure="quarantine")
    server = CampaignServer(tmp_path / "serve-data", workers=2, policy=policy)
    server.start()
    client = ServeClient(server.url)
    try:
        clean = client.wait(str(client.submit(_spec(core_counts=(2, 8)))["job_id"]))
        monkeypatch.setenv(CHAOS_ENV, json.dumps({poison: {"action": "raise"}}))
        hurt = client.wait(str(client.submit(spec)["job_id"]))
        assert clean["simulated"] == 2 and hurt["quarantined"] == 1
        for job_id in (clean["job_id"], hurt["job_id"]):
            body = _raw_result(server, str(job_id))
            assert body == _dict_encoding(server, str(job_id))
            assert json.loads(body) == client.result(str(job_id))
    finally:
        client.close()
        server.stop()


# -- the bounded experiment memo ------------------------------------------


def test_memo_capacity_matches_the_matrix_cache():
    assert ExperimentMemo().capacity == MEMO_CAPACITY
    assert MEMO_CAPACITY == build_matrix.cache_parameters()["maxsize"]


def test_memo_evicts_least_recently_used_and_answers_stay_bitwise():
    spec = _spec(core_counts=(4,), ids=(2, 7, 24))
    ctx = spec.context()
    pts = {pt.mid: pt for pt in spec.points()}
    memo = ExperimentMemo(capacity=2)

    def answer(mid: int) -> str:
        return json.dumps(execute_point(pts[mid], ctx, memo), sort_keys=True)

    first = {mid: answer(mid) for mid in (2, 7)}
    assert answer(2) == first[2]  # touch 2: 7 is now least recently used
    first[24] = answer(24)
    assert [key[0] for key in memo] == [2, 24]
    assert answer(7) == first[7]  # rebuilt after eviction
    assert [key[0] for key in memo] == [24, 7]
    fresh = {mid: json.dumps(execute_point(pts[mid], ctx, {}), sort_keys=True) for mid in pts}
    assert fresh == first
