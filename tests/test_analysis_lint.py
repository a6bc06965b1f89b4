"""Tests for the static lint pass: one buggy + clean case per rule."""

from __future__ import annotations

import os

import pytest

from repro.analysis import (
    Severity,
    all_rules,
    get_rule,
    lint_file,
    lint_paths,
    lint_source,
)
from repro.analysis.findings import (
    Finding,
    findings_from_json,
    findings_to_json,
    format_findings,
    has_errors,
    sort_findings,
)
from repro.analysis.rules import Rule, register_rule

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture(name: str) -> str:
    return os.path.join(FIXTURES, name)


def rules_fired(findings):
    return {f.rule for f in findings}


class TestCatalogue:
    def test_at_least_eight_rules(self):
        assert len(all_rules()) >= 8

    def test_ids_unique_and_ordered(self):
        ids = [r.id for r in all_rules()]
        assert ids == sorted(ids)
        assert len(ids) == len(set(ids))

    def test_get_rule_unknown_raises(self):
        with pytest.raises(KeyError, match="R999"):
            get_rule("R999")

    def test_registry_extensible(self):
        marker = []

        def check(ctx):
            marker.append(ctx.path)
            return iter(())

        r = Rule("ZZZ999", "test-rule", Severity.WARNING, "s", "h", check)
        register_rule(r)
        try:
            lint_source("x = 1", path="<test>")
            assert marker == ["<test>"]
            with pytest.raises(ValueError, match="duplicate"):
                register_rule(r)
        finally:
            from repro.analysis.rules import _REGISTRY

            del _REGISTRY["ZZZ999"]


class TestStaticRules:
    """Each catalogued rule: fires on its fixture at the right line."""

    @pytest.mark.parametrize(
        "name, rule_id",
        [
            ("lint_bad_rcce101.py", "RCCE101"),
            ("lint_bad_rcce102.py", "RCCE102"),
            ("lint_bad_rcce103.py", "RCCE103"),
            ("lint_bad_rcce110.py", "RCCE110"),
            ("lint_bad_rcce120.py", "RCCE120"),
            ("lint_bad_det201.py", "DET201"),
            ("lint_bad_det202.py", "DET202"),
            ("lint_bad_det203.py", "DET203"),
            ("lint_bad_sim301.py", "SIM301"),
            ("lint_bad_sim302.py", "SIM302"),
        ],
    )
    def test_rule_fires_on_fixture(self, name, rule_id):
        findings = lint_file(fixture(name))
        assert rule_id in rules_fired(findings), findings
        hits = [f for f in findings if f.rule == rule_id]
        for f in hits:
            assert f.path.endswith(name)
            assert f.line > 0, "finding must carry a precise line"
            assert f.severity is Severity.ERROR
            assert f.hint

    def test_clean_fixture_has_no_findings(self):
        assert lint_file(fixture("lint_clean.py")) == []

    def test_tag_mismatch_both_directions(self):
        findings = lint_file(fixture("lint_bad_rcce101.py"))
        msgs = [f.message for f in findings if f.rule == "RCCE101"]
        assert any("tag=1" in m for m in msgs)  # orphan send
        assert any("tag=2" in m for m in msgs)  # orphan recv

    def test_wildcard_recv_matches_any_send_tag(self):
        src = (
            "def program(comm):\n"
            "    yield from comm.send(1, 1, tag=9)\n"
            "    x = yield from comm.recv()\n"
            "    return x\n"
        )
        assert "RCCE101" not in rules_fired(lint_source(src))

    def test_dynamic_tags_are_not_guessed(self):
        src = (
            "def program(comm, t):\n"
            "    yield from comm.send(1, 1, tag=t)\n"
            "    x = yield from comm.recv(tag=t + 1)\n"
            "    return x\n"
        )
        assert "RCCE101" not in rules_fired(lint_source(src))

    def test_det202_counts_all_three_rng_styles(self):
        findings = lint_file(fixture("lint_bad_det202.py"))
        assert len([f for f in findings if f.rule == "DET202"]) == 3

    def test_sim302_counts_all_three_yields(self):
        findings = lint_file(fixture("lint_bad_sim302.py"))
        assert len([f for f in findings if f.rule == "SIM302"]) == 3

    def test_rank_branch_with_p2p_only_is_clean(self):
        """The classic even/odd send/recv symmetry break must not fire."""
        src = (
            "def program(comm):\n"
            "    if comm.ue % 2 == 0:\n"
            "        yield from comm.send(1, 1, tag=0)\n"
            "    else:\n"
            "        x = yield from comm.recv(tag=0)\n"
        )
        assert "RCCE110" not in rules_fired(lint_source(src))

    def test_select_restricts_rules(self):
        findings = lint_file(fixture("lint_bad_det202.py"))
        assert findings
        only = lint_paths([fixture("lint_bad_det202.py")], select=["RCCE101"])
        assert only == []

    def test_syntax_error_becomes_finding(self):
        findings = lint_source("def broken(:\n", path="bad.py")
        assert [f.rule for f in findings] == ["PARSE"]
        assert findings[0].severity is Severity.ERROR


class TestUnboundedRecvWithFaults:
    """RCCE130: unbounded recv only matters once faults are in play."""

    def test_fires_on_fixture_as_warning(self):
        findings = lint_file(fixture("lint_bad_rcce130.py"))
        hits = [f for f in findings if f.rule == "RCCE130"]
        assert len(hits) == 2, findings  # one comm.recv + one rcomm.recv
        for f in hits:
            assert f.severity is Severity.WARNING
            assert "timeout" in f.hint or "ReliableComm" in f.hint
            assert f.line > 0

    def test_bounded_recv_does_not_fire(self):
        findings = lint_file(fixture("lint_bad_rcce130.py"))
        flagged_lines = {f.line for f in findings if f.rule == "RCCE130"}
        src = open(fixture("lint_bad_rcce130.py")).read().splitlines()
        for line in flagged_lines:
            assert "timeout" not in src[line - 1]

    def test_silent_without_fault_stack_import(self):
        src = (
            "def program(comm):\n"
            "    data = yield from comm.recv(1, 0)\n"
            "    return data\n"
        )
        assert "RCCE130" not in rules_fired(lint_source(src))

    def test_plain_import_of_faults_also_arms_the_rule(self):
        src = (
            "import repro.faults\n"
            "def program(comm):\n"
            "    data = yield from comm.recv(1, 0)\n"
            "    return data\n"
        )
        assert "RCCE130" in rules_fired(lint_source(src))


class TestDriversAndFormats:
    def test_shipped_programs_are_clean(self):
        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        findings = lint_paths(
            [os.path.join(repo, "examples"), os.path.join(repo, "src", "repro")]
        )
        assert findings == [], format_findings(findings)

    def test_lint_paths_walks_directories(self):
        findings = lint_paths([FIXTURES])
        assert len(rules_fired(findings)) >= 10

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            lint_paths([fixture("does_not_exist")])

    def test_json_and_text_renderings(self):
        import json

        findings = lint_file(fixture("lint_bad_sim301.py"))
        text = format_findings(findings)
        assert "SIM301" in text and "error" in text
        payload = json.loads(findings_to_json(findings))
        assert payload[0]["rule"] == "SIM301"
        assert payload[0]["severity"] == "error"
        assert has_errors(findings)


SPANNED = Finding(
    rule="RCCE110",
    severity=Severity.ERROR,
    message="send with no matching recv",
    path="prog.py",
    line=27,
    hint="match the tag",
    col=16,
    end_line=27,
    end_col=55,
)
RUNTIME_ONLY = Finding(
    rule="RT801",
    severity=Severity.ERROR,
    message="deadlock at t=1.5",
)


class TestFindingSpans:
    def test_location_renders_column(self):
        assert SPANNED.location == "prog.py:27:16"
        assert Finding(rule="X", severity=Severity.INFO, message="m",
                       path="a.py", line=3).location == "a.py:3"
        assert RUNTIME_ONLY.location == "<runtime>"

    def test_str_includes_column(self):
        assert str(SPANNED).startswith("prog.py:27:16: error: RCCE110:")

    def test_lint_findings_carry_spans(self):
        findings = lint_file(fixture("lint_bad_rcce110.py"))
        assert findings
        for f in findings:
            assert f.line > 0 and f.col > 0
            assert f.end_line >= f.line
            assert f.end_col > 0

    def test_sort_orders_by_span(self):
        a = Finding(rule="B", severity=Severity.INFO, message="m", path="p", line=1, col=9)
        b = Finding(rule="A", severity=Severity.INFO, message="m", path="p", line=1, col=2)
        assert sort_findings([a, b]) == [b, a]


class TestJsonRoundTrip:
    def test_round_trip_exact(self):
        text = findings_to_json([SPANNED, RUNTIME_ONLY])
        back = findings_from_json(text)
        assert back == sort_findings([SPANNED, RUNTIME_ONLY])

    def test_dict_round_trip(self):
        d = SPANNED.to_dict()
        assert d["severity"] == "error" and d["col"] == 16 and d["end_col"] == 55
        assert Finding.from_dict(d) == SPANNED

    def test_from_dict_rejects_unknown_keys(self):
        bad = SPANNED.to_dict()
        bad["bogus"] = 1
        with pytest.raises(ValueError):
            Finding.from_dict(bad)

    def test_from_json_rejects_non_list(self):
        with pytest.raises(ValueError):
            findings_from_json("{}")
