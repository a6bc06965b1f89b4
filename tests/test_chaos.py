"""The ``repro chaos`` harness: seeded OS-level faults, verified healing.

The harness's contract is the PR's headline invariant: under any seeded
schedule of worker SIGKILLs, SIGSTOPs and store corruption, the
supervised campaign completes, its surviving records are bitwise
identical to a clean serial run, and exactly the injected poison points
are quarantined.  These tests pin the schedule generator's determinism
and run the full harness end to end on a reduced grid.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.core.campaign import Campaign
from repro.core.supervise import fork_context
from repro.chaos import build_chaos_schedule, chaos_main

pytestmark = pytest.mark.skipif(
    fork_context() is None, reason="requires the fork start method"
)

KEYS = [pt.key() for pt in Campaign.grid(ids=(24, 30), core_counts=(1, 4),
                                         configs=("conf0", "conf1"))]

#: a fast harness invocation: tiny matrices, short SIGSTOP deadline.
FAST = [
    "--scale", "0.02",
    "--iterations", "1",
    "--task-timeout", "2.0",
    "--workers", "2",
]


class TestSchedule:
    def test_deterministic_per_seed(self):
        assert build_chaos_schedule(KEYS, 0) == build_chaos_schedule(KEYS, 0)
        assert build_chaos_schedule(KEYS, 0) != build_chaos_schedule(KEYS, 1)

    def test_targets_are_distinct_and_typed(self):
        spec, transient, poison = build_chaos_schedule(KEYS, 3)
        assert set(spec) == set(transient) | set(poison)
        assert len(spec) == len(transient) + len(poison)
        for key in transient:
            assert spec[key]["attempts"] == [1]
        for key in poison:
            assert spec[key] == {"action": "kill", "attempts": "all"}
        # the 8-point grid draws 2 kills + 1 stop + 2 poison
        assert len(transient) == 3 and len(poison) == 2
        assert sum(1 for e in spec.values() if e["action"] == "stop") == 1

    def test_insensitive_to_key_order(self):
        assert build_chaos_schedule(KEYS, 5) == build_chaos_schedule(
            list(reversed(KEYS)), 5
        )

    def test_tiny_grids_scale_down(self):
        spec, transient, poison = build_chaos_schedule(KEYS[:2], 0)
        assert poison and len(spec) <= 2


class TestHarnessEndToEnd:
    def test_invariants_hold_and_artifacts_written(self, tmp_path):
        qfile = tmp_path / "quarantine.jsonl"
        buf = io.StringIO()
        code = chaos_main(
            FAST + ["--seed", "0", "--json",
                    "--quarantine-records", str(qfile)],
            out=buf,
        )
        report = json.loads(buf.getvalue())
        assert code == 0, report
        assert report["violations"] == []
        worker = report["worker_leg"]
        assert worker["quarantined"] == sorted(worker["poison"])
        assert worker["survivors_checked"] == worker["points"] - len(
            worker["poison"]
        )
        metrics = worker["metrics"]
        assert metrics["supervise.quarantines"] == len(worker["poison"])
        assert metrics["supervise.retries"] >= len(worker["transient"])
        # the quarantine-records artifact holds one record per poison key
        records = [json.loads(line) for line in qfile.read_text().splitlines()]
        assert len(records) == len(worker["poison"])
        assert all(rec["status"] == "quarantined" for rec in records)
        assert all(rec["tracebacks"] for rec in records)
        # the store leg ran and quarantined every corrupted entry
        store = report["store_leg"]
        assert not store.get("skipped")
        assert len(store["corrupt_quarantined"]) == 3

    def test_skip_store_leg(self, tmp_path):
        buf = io.StringIO()
        code = chaos_main(
            FAST + ["--seed", "1", "--json", "--skip-store-leg"], out=buf
        )
        report = json.loads(buf.getvalue())
        assert code == 0, report
        assert report["store_leg"]["skipped"]

    def test_explicit_machine_smoke(self, tmp_path):
        """--machine scc-48 is the default spelled out: same invariants."""
        buf = io.StringIO()
        code = chaos_main(
            FAST + ["--seed", "1", "--json", "--skip-store-leg",
                    "--machine", "scc-48"],
            out=buf,
        )
        report = json.loads(buf.getvalue())
        assert code == 0, report
        assert report["violations"] == []

    def test_text_report_names_the_invariants(self):
        buf = io.StringIO()
        code = chaos_main(FAST + ["--seed", "2", "--skip-store-leg"], out=buf)
        text = buf.getvalue()
        assert code == 0, text
        assert "bitwise-identical" in text
        assert "quarantined set == injected poison set" in text
