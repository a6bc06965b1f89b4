"""Tests for persistent experiment campaigns."""

from __future__ import annotations

import json

import pytest

from repro.core.campaign import (
    Campaign,
    CampaignIntegrityError,
    CampaignPoint,
)
from repro.core.experiment import SpMVExperiment
from repro.sparse import banded

SCALE = 0.04


@pytest.fixture()
def campaign(tmp_path):
    return Campaign("trial", tmp_path, scale=SCALE, iterations=2)


class TestRecord:
    def test_record_fields(self):
        a = banded(200, 5.0, 6, seed=1)
        r = SpMVExperiment(a, name="m").run(n_cores=2, iterations=2)
        rec = r.to_record()
        assert rec["matrix"] == "m"
        assert rec["mflops"] == pytest.approx(r.mflops)
        json.dumps(rec)  # must be JSON-serializable


class TestGrid:
    def test_cartesian_product(self):
        pts = Campaign.grid([1, 2], [4, 8], configs=("conf0", "conf1"))
        assert len(pts) == 8
        keys = {p.key() for p in pts}
        assert len(keys) == 8  # unique

    def test_point_key_stable(self):
        p = CampaignPoint(7, 8, "conf0", "standard", "csr")
        assert p.key() == "7:8:conf0:standard:csr"


class TestCampaign:
    def test_name_validation(self, tmp_path):
        with pytest.raises(ValueError):
            Campaign("", tmp_path)
        with pytest.raises(ValueError):
            Campaign("a/b", tmp_path)
        with pytest.raises(ValueError):
            Campaign("ok", tmp_path, iterations=0)

    def test_run_and_load(self, campaign):
        pts = Campaign.grid([30], [1, 4])
        ran, skipped = campaign.run(pts)
        assert (ran, skipped) == (2, 0)
        records = campaign.load()
        assert len(records) == 2
        assert {r["n_cores"] for r in records} == {1, 4}
        assert all(r["mflops"] > 0 for r in records)

    def test_resume_skips_completed(self, campaign):
        pts = Campaign.grid([30], [1, 4])
        campaign.run(pts)
        ran, skipped = campaign.run(pts + Campaign.grid([30], [8]))
        assert ran == 1 and skipped == 2
        assert len(campaign.load()) == 3

    def test_resume_across_instances(self, campaign, tmp_path):
        campaign.run(Campaign.grid([30], [2]))
        again = Campaign("trial", tmp_path, scale=SCALE, iterations=2)
        ran, skipped = again.run(Campaign.grid([30], [2]))
        assert ran == 0 and skipped == 1

    def test_unknown_config_rejected(self, campaign):
        with pytest.raises(ValueError):
            campaign.run([CampaignPoint(30, 4, "conf9", "standard", "csr")])

    def test_summarize(self, campaign):
        campaign.run(Campaign.grid([30, 31], [4]))
        summary = campaign.summarize(group_by="n_cores")
        assert set(summary) == {4}
        assert summary[4] > 0

    def test_records_include_scale_key(self, campaign):
        campaign.run(Campaign.grid([30], [2]))
        raw = campaign.path.read_text().strip().splitlines()
        rec = json.loads(raw[0])
        assert rec["scale"] == SCALE
        assert "_key" in rec


class TestRobustPersistence:
    def test_truncated_trailing_record_tolerated(self, campaign):
        campaign.run(Campaign.grid([30], [1, 4]))
        with open(campaign.path, "a", encoding="utf-8") as fh:
            fh.write('{"matrix": "cut-mid-wri')  # crash mid-append
        with pytest.warns(UserWarning, match="truncated trailing record"):
            records = campaign.load()
        assert len(records) == 2
        # the interrupted point simply reruns on resume
        with pytest.warns(UserWarning, match="truncated trailing record"):
            ran, skipped = campaign.run(Campaign.grid([30], [1, 4, 8]))
        assert (ran, skipped) == (1, 2)

    def test_mid_file_corruption_raises_integrity_error(self, campaign):
        campaign.run(Campaign.grid([30], [1, 4]))
        lines = campaign.path.read_text().splitlines()
        lines[0] = lines[0][: len(lines[0]) // 2]  # damage a non-final line
        campaign.path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CampaignIntegrityError, match="repair"):
            campaign.load()
        with pytest.raises(CampaignIntegrityError):
            campaign.completed_keys()

    def test_repair_quarantines_and_rewrites(self, campaign):
        campaign.run(Campaign.grid([30], [1, 4]))
        lines = campaign.path.read_text().splitlines()
        lines.insert(1, "not json at all")
        lines.insert(0, '["a", "list", "not", "an", "object"]')
        campaign.path.write_text("\n".join(lines) + "\n")
        kept, quarantined = campaign.repair()
        assert (kept, quarantined) == (2, 2)
        assert len(campaign.load()) == 2  # readable again
        qpath = campaign.output_dir / "trial.quarantine.jsonl"
        qlines = qpath.read_text().strip().splitlines()
        assert qlines == ['["a", "list", "not", "an", "object"]', "not json at all"]
        # quarantine appends rather than overwriting
        campaign.path.write_text('{"x":\n' + campaign.path.read_text())
        campaign.repair()
        assert len(qpath.read_text().strip().splitlines()) == 3

    def test_repair_on_missing_file(self, tmp_path):
        assert Campaign("virgin", tmp_path).repair() == (0, 0)

    def test_point_budget_records_timeout_and_continues(self, tmp_path):
        c = Campaign("budget", tmp_path, scale=SCALE, iterations=2,
                     point_budget=1e-12)
        ran, skipped = c.run(Campaign.grid([30], [1, 4]))
        assert (ran, skipped) == (2, 0)
        records = c.load()
        assert [r["status"] for r in records] == ["timeout", "timeout"]
        assert all(r["budget_s"] == 1e-12 and r["stuck_ues"] for r in records)
        assert c.status_counts() == {"timeout": 2}
        assert c.summarize() == {}  # no throughput from timed-out points
        # deterministically-timing-out points are NOT retried on resume
        ran, skipped = c.run(Campaign.grid([30], [1, 4]))
        assert (ran, skipped) == (0, 2)

    def test_point_budget_validation(self, tmp_path):
        with pytest.raises(ValueError):
            Campaign("bad", tmp_path, point_budget=0.0)
