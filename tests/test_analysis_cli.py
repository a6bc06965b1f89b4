"""Tests for the ``repro lint`` / ``repro check`` CLI subcommands."""

from __future__ import annotations

import io
import json
import os

import pytest

from repro.cli import ANALYSIS_COMMANDS, main

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(*argv):
    buf = io.StringIO()
    code = main(list(argv), out=buf)
    return code, buf.getvalue()


class TestLintCommand:
    def test_clean_paths_exit_zero(self):
        code, text = run_cli(
            "lint",
            os.path.join(REPO, "examples"),
            os.path.join(REPO, "src", "repro", "apps"),
        )
        assert code == 0
        assert "no findings" in text

    def test_buggy_fixture_exit_one_with_location(self):
        path = os.path.join(FIXTURES, "lint_bad_rcce110.py")
        code, text = run_cli("lint", path)
        assert code == 1
        assert "RCCE110" in text
        assert "lint_bad_rcce110.py:7" in text  # precise file:line

    def test_json_format(self):
        path = os.path.join(FIXTURES, "lint_bad_sim301.py")
        code, text = run_cli("lint", path, "--format", "json")
        assert code == 1
        payload = json.loads(text)
        assert payload[0]["rule"] == "SIM301"

    def test_select_filter(self):
        path = os.path.join(FIXTURES, "lint_bad_sim301.py")
        code, text = run_cli("lint", path, "--select", "DET201")
        assert code == 0

    def test_list_rules(self):
        code, text = run_cli("lint", "--list-rules")
        assert code == 0
        for rule_id in ("RCCE101", "RCCE110", "DET201", "SIM302"):
            assert rule_id in text

    def test_no_paths_is_an_error(self):
        with pytest.raises(SystemExit):
            run_cli("lint")

    def test_missing_path_is_an_error(self):
        with pytest.raises(SystemExit):
            run_cli("lint", "no/such/dir")

    def test_analysis_commands_exported(self):
        assert ANALYSIS_COMMANDS == ("lint", "check")


class TestCheckCommand:
    def test_battery_runs_clean(self):
        code, text = run_cli("check", "--no-determinism")
        assert code == 0
        assert "ring-allgather" in text
        assert "0 failing" in text

    def test_buggy_program_fails_with_wait_for_graph(self):
        spec = os.path.join(FIXTURES, "buggy_programs.py") + ":deadlock_tag_mismatch"
        code, text = run_cli(
            "check", "--program", spec, "--ues", "2", "--no-determinism"
        )
        assert code == 1
        assert "RT801" in text
        assert "tag=5" in text and "tag=7" in text

    def test_nondeterministic_program_fails(self):
        spec = (
            os.path.join(FIXTURES, "buggy_programs.py") + ":nondeterministic_compute"
        )
        code, text = run_cli("check", "--program", spec, "--ues", "2")
        assert code == 1
        assert "DET900" in text

    def test_json_format(self):
        code, text = run_cli("check", "--no-determinism", "--format", "json")
        assert code == 0
        payload = json.loads(text)
        assert all(entry["ok"] for entry in payload)

    def test_bad_program_spec(self):
        with pytest.raises(SystemExit):
            run_cli("check", "--program", "nope")

    def test_bad_ues(self):
        spec = os.path.join(FIXTURES, "buggy_programs.py") + ":deadlock_all_recv"
        with pytest.raises(SystemExit):
            run_cli("check", "--program", spec, "--ues", "0")

    RING_FIXED = os.path.join(FIXTURES, "df_ring_fixed.py") + ":ring_exchange_fixed"
    RING_DEADLOCK = (
        os.path.join(FIXTURES, "df_deadlock_ring.py") + ":ring_exchange_deadlock"
    )

    def test_ues_range_checks_every_count(self):
        code, text = run_cli(
            "check", "--program", self.RING_FIXED, "--ues", "2:48", "--no-determinism"
        )
        assert code == 0
        ok_lines = [line for line in text.splitlines() if line.startswith("[ok]")]
        assert len(ok_lines) == 47
        for n, line in zip(range(2, 49), ok_lines):
            assert line.startswith(f"[ok] ring_exchange_fixed @ n_ues={n}:")
        assert "47 program(s) checked, 0 failing" in text

    def test_ues_range_fails_at_every_count(self):
        code, text = run_cli(
            "check", "--program", self.RING_DEADLOCK, "--ues", "2:48", "--no-determinism"
        )
        assert code == 1
        fail_lines = [line for line in text.splitlines() if line.startswith("[FAIL]")]
        assert len(fail_lines) == 47
        assert text.count("RT801") == 47

    def test_ues_range_json_rows_carry_n_ues(self):
        code, text = run_cli(
            "check", "--program", self.RING_FIXED, "--ues", "3:5",
            "--no-determinism", "--json",
        )
        assert code == 0
        payload = json.loads(text)
        assert [row["n_ues"] for row in payload] == [3, 4, 5]
        assert all(row["ok"] for row in payload)

    def test_ues_range_min_below_one(self):
        with pytest.raises(SystemExit, match="1 <= MIN <= MAX <= 48"):
            run_cli("check", "--program", self.RING_FIXED, "--ues", "0:4")

    def test_ues_range_max_below_min(self):
        with pytest.raises(SystemExit, match="1 <= MIN <= MAX <= 48"):
            run_cli("check", "--program", self.RING_FIXED, "--ues", "8:2")

    def test_ues_above_chip_size(self):
        with pytest.raises(SystemExit, match="1 <= MIN <= MAX <= 48"):
            run_cli("check", "--program", self.RING_FIXED, "--ues", "49")
        with pytest.raises(SystemExit, match="1 <= MIN <= MAX <= 48"):
            run_cli("check", "--program", self.RING_FIXED, "--ues", "2:49")

    def test_ues_not_a_count(self):
        with pytest.raises(SystemExit, match="'N' or 'MIN:MAX'"):
            run_cli("check", "--program", self.RING_FIXED, "--ues", "abc")

    def test_program_without_ues_runs_at_four(self):
        code, text = run_cli("check", "--program", self.RING_FIXED, "--no-determinism")
        assert code == 0
        assert text.splitlines()[0].startswith("[ok] ring_exchange_fixed @ n_ues=4:")
        assert "1 program(s) checked, 0 failing" in text

    def test_ues_without_program_is_rejected(self):
        with pytest.raises(SystemExit, match="--ues needs --program"):
            run_cli("check", "--ues", "2:48", "--no-determinism")
