"""The parallel execution contract: sharding never changes the answers.

The sweep executor (:mod:`repro.core.supervise`) promises
submission-order results, an in-process serial path, graceful
degradation without ``fork``, and quarantine-then-rerun with no
duplicates and no gaps; :class:`~repro.core.campaign.Campaign` builds on
that to make a ``workers=N`` run bitwise-identical to the serial one.
These tests pin each promise, plus the metrics-merge algebra that makes
parallel campaign aggregation exact.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core.campaign import Campaign
from repro.core.supervise import (
    CHAOS_ENV,
    CRASH_ENV,
    QuarantinedTaskError,
    SupervisePolicy,
    available_parallelism,
    fork_context,
    in_worker,
    maybe_crash,
    supervised_iter_ordered,
    supervised_parallel_map,
)
from repro.obs.metrics import merge_flat_summaries

pytestmark = pytest.mark.skipif(
    fork_context() is None, reason="requires the fork start method"
)

SCALE = 0.05
ITERATIONS = 2
GRID = dict(ids=(24, 30), core_counts=(1, 4), configs=("conf0", "conf1"))


def _square(x: int) -> int:
    """Module-level so pool workers can pickle it."""
    return x * x


def _campaign(tmp_path, name, **kw):
    kw.setdefault("scale", SCALE)
    kw.setdefault("iterations", ITERATIONS)
    kw.setdefault("mode", "model")
    return Campaign(name, tmp_path, **kw)


def _pid(_x: int) -> int:
    return os.getpid()


def _fail_on_three(x: int) -> int:
    if x == 3:
        raise ValueError("bad item")
    return x


class TestPrimitives:
    def test_parallel_map_preserves_submission_order(self):
        items = list(range(12))
        assert supervised_parallel_map(_square, items, workers=3) == [
            x * x for x in items
        ]

    def test_serial_and_parallel_agree(self):
        items = list(range(7))
        assert supervised_parallel_map(
            _square, items, workers=1
        ) == supervised_parallel_map(_square, items, workers=4)

    def test_iter_ordered_yields_item_result_pairs(self):
        outcomes = list(supervised_iter_ordered(_square, [3, 1, 2], workers=2))
        assert [(o.item, o.value) for o in outcomes] == [(3, 9), (1, 1), (2, 4)]

    def test_iter_ordered_bounds_in_flight_submissions(self):
        pulled = []

        def gen():
            for x in range(500):
                pulled.append(x)
                yield x

        it = supervised_iter_ordered(_square, gen(), workers=2)
        try:
            outcome = next(it)
            assert (outcome.item, outcome.value) == (0, 0)
            # sliding window: ~window_factor * workers in flight, not 500
            assert len(pulled) < 500
            assert len(pulled) <= 2 + 4 * 2 + 1
        finally:
            it.close()

    def test_iter_ordered_serial_path_stays_lazy(self):
        pulled = []

        def gen():
            for x in range(100):
                pulled.append(x)
                yield x

        it = supervised_iter_ordered(_square, gen(), workers=1)
        next(it)
        assert pulled == [0]

    def test_serial_path_runs_in_the_parent_process(self):
        assert supervised_parallel_map(_pid, range(3), workers=1) == [os.getpid()] * 3
        # a policy, or more than one worker, forks
        assert os.getpid() not in supervised_parallel_map(
            _pid, range(3), workers=1, policy=SupervisePolicy()
        )
        assert os.getpid() not in supervised_parallel_map(_pid, range(3), workers=2)

    def test_serial_path_propagates_task_exceptions(self):
        with pytest.raises(ValueError, match="bad item"):
            supervised_parallel_map(_fail_on_three, range(5), workers=1)
        # the pool retries under the default policy, then reports the task
        with pytest.raises(QuarantinedTaskError) as excinfo:
            supervised_parallel_map(_fail_on_three, range(5), workers=2)
        assert excinfo.value.outcome.item == 3
        assert excinfo.value.outcome.attempts == SupervisePolicy().max_attempts

    def test_empty_sweep_forks_nothing(self, monkeypatch):
        import repro.core.supervise as sup

        def no_fork(*_args):
            raise AssertionError("forked a worker for an empty sweep")

        monkeypatch.setattr(sup, "_Worker", no_fork)
        assert sup.supervised_parallel_map(_square, [], workers=4) == []

    def test_fork_unavailable_degrades_to_serial(self, monkeypatch):
        import repro.core.supervise as sup

        monkeypatch.setattr(sup, "fork_context", lambda: None)
        with pytest.warns(UserWarning, match="in-process"):
            out = sup.supervised_parallel_map(_square, [1, 2, 3], workers=4)
        assert out == [1, 4, 9]

    def test_maybe_crash_is_inert_in_the_parent(self, monkeypatch):
        monkeypatch.setenv(CRASH_ENV, "some:task")
        assert not in_worker()
        maybe_crash("some:task")  # must NOT kill the test process

    def test_available_parallelism_positive(self):
        assert available_parallelism() >= 1


class TestCampaignParallel:
    def test_parallel_file_bitwise_identical_to_serial(self, tmp_path):
        points = Campaign.grid(**GRID)
        serial = _campaign(tmp_path, "serial")
        par = _campaign(tmp_path, "par")
        assert serial.run(points) == (len(points), 0)
        assert par.run(points, workers=4) == (len(points), 0)
        assert par.path.read_bytes() == serial.path.read_bytes()

    def test_crash_resume_no_duplicates_no_gaps(self, tmp_path, monkeypatch):
        """A point whose worker always dies is quarantined; the sweep goes
        on, and a rerun after the fault clears fills exactly that hole."""
        points = Campaign.grid(**GRID)
        serial = _campaign(tmp_path, "reference")
        serial.run(points)

        crashy = _campaign(tmp_path, "crashy")
        monkeypatch.setenv(CRASH_ENV, points[3].key())
        assert crashy.run(points, workers=2) == (len(points), 0)
        assert crashy.status_counts() == {"ok": len(points) - 1, "quarantined": 1}
        assert crashy.completed_keys() == {pt.key() for pt in points} - {
            points[3].key()
        }
        assert crashy.last_supervise["supervise.worker_crashes"] == (
            SupervisePolicy().max_attempts
        )

        monkeypatch.delenv(CRASH_ENV)
        assert crashy.run(points, workers=2) == (1, len(points) - 1)
        # no gaps, no duplicates, and the serial run's records
        assert crashy.completed_keys() == {pt.key() for pt in points}
        records = crashy.load()
        assert len(records) == len(points)
        by_key = {(r["matrix"], r["n_cores"], r["config"]): r for r in records}
        assert len(by_key) == len(points)
        assert sorted(by_key.items()) == sorted(
            ((r["matrix"], r["n_cores"], r["config"]), r) for r in serial.load()
        )

    def test_duplicate_points_count_as_skipped(self, tmp_path):
        points = Campaign.grid(**GRID)
        c = _campaign(tmp_path, "dups")
        ran, skipped = c.run(points + points[:3])
        assert (ran, skipped) == (len(points), 3)
        # a second run skips everything
        assert c.run(points, workers=2) == (0, len(points))

    def test_workers_must_be_positive(self, tmp_path):
        c = _campaign(tmp_path, "vals")
        with pytest.raises(ValueError, match="workers"):
            c.run(Campaign.grid(**GRID), workers=0)

    def test_unknown_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="mode"):
            _campaign(tmp_path, "bad", mode="magic")

    def test_parallel_metrics_summary_matches_serial(self, tmp_path):
        points = Campaign.grid(ids=(24,), core_counts=(1, 4), configs=("conf0",))
        serial = _campaign(tmp_path, "m_serial", collect_metrics=True)
        par = _campaign(tmp_path, "m_par", collect_metrics=True)
        serial.run(points)
        par.run(points, workers=2)
        summary = par.metrics_summary()
        assert summary == serial.metrics_summary()
        assert summary  # collect_metrics actually recorded something


class TestSupervisedCampaign:
    """Campaign.run under a SupervisePolicy: self-healing, same bytes."""

    POLICY = SupervisePolicy(max_retries=2, backoff_base=0.0, backoff_jitter=0.0)

    def test_supervised_run_bitwise_identical_to_serial(self, tmp_path):
        points = Campaign.grid(**GRID)
        serial = _campaign(tmp_path, "sup_serial")
        sup = _campaign(tmp_path, "sup_par")
        serial.run(points)
        assert sup.run(points, workers=4, policy=self.POLICY) == (len(points), 0)
        assert sup.path.read_bytes() == serial.path.read_bytes()
        assert sup.last_supervise["supervise.tasks"] == len(points)

    def test_transient_kill_heals_with_identical_bytes(self, tmp_path, monkeypatch):
        points = Campaign.grid(**GRID)
        serial = _campaign(tmp_path, "heal_ref")
        serial.run(points)
        # SIGKILL the worker running point 3 on its first attempt only
        monkeypatch.setenv(
            CHAOS_ENV,
            json.dumps({points[3].key(): {"action": "kill", "attempts": [1]}}),
        )
        healed = _campaign(tmp_path, "heal_run")
        assert healed.run(points, workers=2, policy=self.POLICY) == (
            len(points),
            0,
        )
        # recovered records carry no retry metadata: bytes stay identical
        assert healed.path.read_bytes() == serial.path.read_bytes()
        assert healed.last_supervise["supervise.retries"] >= 1
        assert healed.last_supervise["supervise.worker_crashes"] >= 1

    def test_poison_point_quarantines_then_reruns_after_clearing(
        self, tmp_path, monkeypatch
    ):
        points = Campaign.grid(**GRID)
        serial = _campaign(tmp_path, "poison_ref")
        serial.run(points)
        target = points[5]
        monkeypatch.setenv(
            CHAOS_ENV,
            json.dumps({target.key(): {"action": "kill", "attempts": "all"}}),
        )
        c = _campaign(tmp_path, "poison_run")
        assert c.run(points, workers=2, policy=self.POLICY) == (len(points), 0)
        # the poison point persisted as a structured quarantine record
        assert c.status_counts().get("quarantined") == 1
        quarantined = [
            rec for rec in c.load() if rec.get("status") == "quarantined"
        ]
        assert len(quarantined) == 1
        rec = quarantined[0]
        assert rec["reason"] == "crash"
        assert rec["attempts"] == self.POLICY.max_attempts
        assert len(rec["tracebacks"]) == self.POLICY.max_attempts
        assert rec["n_cores"] == target.n_cores
        # quarantined points are retryable: excluded from the resume set
        assert target.key() not in c.completed_keys()
        assert len(c.completed_keys()) == len(points) - 1

        # fault clears -> resume reruns exactly the quarantined point
        monkeypatch.delenv(CHAOS_ENV)
        assert c.run(points, workers=2, policy=self.POLICY) == (
            1,
            len(points) - 1,
        )
        assert c.completed_keys() == {pt.key() for pt in points}
        # the healed record supersedes the quarantine marker in load()
        assert c.status_counts() == {"ok": len(points)}
        assert c.summarize() == serial.summarize()

    def test_on_failure_serial_rescues_in_parent(self, tmp_path, monkeypatch):
        points = Campaign.grid(**GRID)
        serial = _campaign(tmp_path, "ladder_ref")
        serial.run(points)
        # poison in the pool: every in-pool attempt of point 0 dies; the
        # serial fallback runs in the parent, where chaos is inert.
        monkeypatch.setenv(
            CHAOS_ENV,
            json.dumps({points[0].key(): {"action": "kill", "attempts": "all"}}),
        )
        policy = SupervisePolicy(
            max_retries=0, backoff_base=0.0, backoff_jitter=0.0,
            on_failure="serial",
        )
        c = _campaign(tmp_path, "ladder_run")
        assert c.run(points, workers=2, policy=policy) == (len(points), 0)
        assert c.status_counts() == {"ok": len(points)}
        assert c.path.read_bytes() == serial.path.read_bytes()
        assert c.last_supervise["supervise.fallbacks"] == 1


class TestMergeFlatSummaries:
    def test_counters_sum_as_totals(self):
        merged = merge_flat_summaries([{"msgs": 2.0}, {"msgs": 3.0, "drops": 1.0}])
        assert merged == {"drops": 1.0, "msgs": 5.0}

    def test_histograms_merge_count_weighted(self):
        a = {"lat": {"count": 2, "mean": 1.0, "min": 0.5, "max": 1.5}}
        b = {"lat": {"count": 6, "mean": 3.0, "min": 2.0, "max": 9.0}}
        merged = merge_flat_summaries([a, b])
        assert merged["lat"] == {"count": 8, "mean": 2.5, "min": 0.5, "max": 9.0}

    def test_empty_histograms_never_drag_min_max(self):
        empty = {"lat": {"count": 0, "mean": 0.0, "min": 0.0, "max": 0.0}}
        real = {"lat": {"count": 4, "mean": 2.0, "min": 1.0, "max": 3.0}}
        assert merge_flat_summaries([empty, real]) == real
        assert merge_flat_summaries([real, empty]) == real
        assert merge_flat_summaries([empty]) == empty

    def test_merge_is_associative(self):
        parts = [
            {"n": 1.0, "lat": {"count": 1, "mean": 4.0, "min": 4.0, "max": 4.0}},
            {"n": 2.0, "lat": {"count": 3, "mean": 2.0, "min": 1.0, "max": 3.0}},
            {"n": 4.0, "lat": {"count": 0, "mean": 0.0, "min": 0.0, "max": 0.0}},
        ]
        serial = merge_flat_summaries(parts)
        left = merge_flat_summaries([merge_flat_summaries(parts[:2]), parts[2]])
        right = merge_flat_summaries([parts[0], merge_flat_summaries(parts[1:])])
        assert serial == left == right


def test_crash_env_documented_name():
    """The test hook's env var is part of the public resume contract."""
    assert CRASH_ENV == "REPRO_FAULT_WORKER_CRASH"
    assert os.environ.get(CRASH_ENV) is None
