"""Concurrency contracts of the campaign server.

Two layers are attacked with real threads:

* the :class:`~repro.serve.queue.PointQueue` claim protocol — racing
  claimers must partition the pending set (no key claimed twice, none
  lost);
* the whole HTTP service — N concurrent clients submitting overlapping
  grids must cause **each unique store key to be simulated exactly
  once**, with every client's merged results equal to the serial
  baseline.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.core.campaign import Campaign
from repro.core.supervise import fork_context
from repro.serve import CampaignServer, CampaignSpec, PointQueue, ServeClient
from repro.serve.protocol import point_store_key
from repro.store import ContentStore

SCALE = 0.05
ITERATIONS = 2


def _spec(core_counts, ids=(24,)):
    return CampaignSpec(
        ids=tuple(ids),
        core_counts=tuple(core_counts),
        scale=SCALE,
        iterations=ITERATIONS,
        mode="model",
    )


def _canon(rec: dict) -> str:
    return json.dumps(rec, sort_keys=True)


# -- queue-level claim atomicity ------------------------------------------


def test_concurrent_claimers_partition_the_pending_set(tmp_path):
    """No two racing claim_batch() calls ever receive the same key."""
    queue = PointQueue(ContentStore(root=tmp_path / "cache", namespace="t"))
    specs = [_spec((n,)) for n in (1, 2, 4, 8, 16, 32)]
    jobs = [queue.submit(s) for s in specs]
    expected_keys = {k for job in jobs for k in job.keys}

    claimed: list = []
    claimed_lock = threading.Lock()
    start = threading.Barrier(8)

    def claimer():
        start.wait()
        while True:
            batch = queue.claim_batch(timeout=0.01)
            if not batch:
                return
            with claimed_lock:
                claimed.extend(key for key, _pt, _ctx in batch)

    threads = [threading.Thread(target=claimer) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert len(claimed) == len(set(claimed)), "a key was claimed twice"
    assert set(claimed) == expected_keys
    # Completing every claim resolves every waiting job.
    for key in claimed:
        queue.complete(key, {"status": "ok", "key": key})
    assert all(job.done.is_set() for job in jobs)


def test_duplicate_submissions_share_one_flight(tmp_path):
    """Same spec submitted twice before any claim: one pending key set."""
    queue = PointQueue(ContentStore(root=tmp_path / "cache", namespace="t"))
    a = queue.submit(_spec((1, 4)))
    b = queue.submit(_spec((1, 4)))
    batch = queue.claim_batch(timeout=0.01)
    assert len(batch) == 2  # not 4: the second job joined the flight
    for key, _pt, _ctx in batch:
        queue.complete(key, {"status": "ok", "key": key})
    assert a.done.is_set() and b.done.is_set()
    assert a.records == b.records
    assert a.origins == ["simulated"] * 2
    assert b.origins == ["shared"] * 2


def test_completion_is_store_before_table_drop(tmp_path):
    """A submission racing a completion must hit store or flight, never
    re-simulate: after complete() returns, the store already has the
    record (the write happens under the same lock that drops the key)."""
    store = ContentStore(root=tmp_path / "cache", namespace="t")
    queue = PointQueue(store)
    job = queue.submit(_spec((4,)))
    [(key, pt, ctx)] = queue.claim_batch(timeout=0.01)
    queue.complete(key, {"status": "ok", "n_cores": 4})
    assert store.get_json(key) == {"status": "ok", "n_cores": 4}
    late = queue.submit(_spec((4,)))
    assert late.done.is_set()
    assert late.origins == ["store"]
    assert queue.claim_batch(timeout=0.01) == []


# -- service-level concurrency --------------------------------------------


@pytest.mark.skipif(
    fork_context() is None,
    reason="the campaign server's supervised pool needs the fork start method",
)
def test_concurrent_clients_simulate_each_unique_key_exactly_once(tmp_path):
    grids = [(1, 2), (2, 4), (4, 8), (1, 8)]  # overlapping core counts
    union_counts = sorted({n for grid in grids for n in grid})
    union_spec = _spec(tuple(union_counts))
    unique_keys = {
        point_store_key(pt, union_spec.context()) for pt in union_spec.points()
    }

    server = CampaignServer(tmp_path / "serve-data", workers=2)
    server.start()
    try:
        results: dict = {}
        errors: list = []
        start = threading.Barrier(len(grids))

        def submit_and_wait(i, grid):
            try:
                with ServeClient(server.url) as client:
                    start.wait()
                    summary = client.submit(_spec(grid))
                    results[i] = client.wait(str(summary["job_id"]), timeout=300.0)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append((i, exc))

        threads = [
            threading.Thread(target=submit_and_wait, args=(i, grid))
            for i, grid in enumerate(grids)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors

        with ServeClient(server.url) as client:
            serve_metrics = client.metrics()["serve"]
            store_entries = client.healthz()["store_entries"]
        # The exactly-once invariant, from the server's own counters:
        # every unique store key simulated once, every other request for
        # it answered by dedup (store hit or shared flight).
        assert serve_metrics["simulations"] == len(unique_keys)
        total_points = sum(len(_spec(grid).points()) for grid in grids)
        assert sum(r["simulated"] for r in results.values()) == len(unique_keys)
        assert sum(r["dedup_hits"] for r in results.values()) == total_points - len(
            unique_keys
        )
        assert store_entries == len(unique_keys)

        # Merged records equal the serial baseline of the union grid.
        baseline = Campaign(
            "baseline",
            output_dir=tmp_path / "baseline",
            scale=SCALE,
            iterations=ITERATIONS,
            mode="model",
        )
        baseline.run(union_spec.points(), workers=1)
        by_cores = {rec["n_cores"]: _canon(rec) for rec in baseline.load()}
        for i, grid in enumerate(grids):
            for n, rec in zip(grid, results[i]["records"]):
                assert rec["n_cores"] == n
                assert _canon(rec) == by_cores[n]
    finally:
        server.stop()
