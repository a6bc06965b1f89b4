"""The seeded ``df_*`` ring fixtures' message flow, checked at run time.

``df_deadlock_ring.py`` sends before it receives on every rank, so the
blocked sends form one wait-for cycle around the whole ring;
``df_ring_fixed.py`` staggers the exchange and drains it.  These tests
pin what the runtime checkers report about that flow (the cycle, each
count on its own, the delivered payloads) and that ``repro check``
reports nothing on the clean fixtures, determinism included.
"""

from __future__ import annotations

import io
import json
import os

import pytest

from repro.analysis.check import load_program, run_checked
from repro.analysis.findings import Severity
from repro.cli import main
from repro.scc.topology import N_CORES

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
DEADLOCK = os.path.join(FIXTURES, "df_deadlock_ring.py") + ":ring_exchange_deadlock"
FIXED = os.path.join(FIXTURES, "df_ring_fixed.py") + ":ring_exchange_fixed"
ALL_N = range(2, N_CORES + 1)
RING_TAG = 3


def run_cli(*argv):
    buf = io.StringIO()
    code = main(list(argv), out=buf)
    return code, buf.getvalue()


class TestSeededFixturePair:
    """The broken ring's wait-for cycle spans every rank; the fix drains."""

    def test_deadlock_ring_detected_for_all_core_counts(self):
        fn = load_program(DEADLOCK)[1]
        for n in ALL_N:
            result = run_checked("ring", fn, n, verify_determinism=False)
            assert not result.completed, f"completed at n_ues={n}"
            [finding] = result.findings
            assert finding.rule == "RT801" and finding.severity is Severity.ERROR
            assert f"{n} UE(s) blocked" in finding.message
            for ue in range(n):
                edge = f"UE {ue}: blocked in send to UE {(ue + 1) % n} (tag={RING_TAG})"
                assert edge in finding.message, f"n_ues={n}: no edge {edge!r}"

    def test_deadlock_ring_at_each_count_individually(self):
        for n in (2, 3, 17, 48):
            code, text = run_cli(
                "check", "--program", DEADLOCK, "--ues", str(n), "--no-determinism"
            )
            assert code == 1, f"passed at n_ues={n}"
            fail_lines = [ln for ln in text.splitlines() if ln.startswith("[FAIL]")]
            assert len(fail_lines) == 1
            assert fail_lines[0].startswith(f"[FAIL] ring_exchange_deadlock @ n_ues={n}:")
            assert "RT801" in text and f"{n} UE(s) blocked" in text

    def test_fixed_ring_is_clean_for_all_core_counts(self):
        fixed = load_program(FIXED)[1]
        for n in ALL_N:
            totals = {}

            def recorded(comm):
                totals[comm.ue] = yield from fixed(comm)

            result = run_checked("ring", recorded, n, verify_determinism=False)
            assert result.completed and result.findings == [], f"n_ues={n}"
            # each UE receives its left neighbour's rank, so the allreduce
            # of what arrived is the sum of all ranks on every UE
            assert totals == {ue: float(sum(range(n))) for ue in range(n)}


class TestZeroFalsePositiveCorpus:
    """The clean fixtures pass ``repro check`` at every count, with no
    finding of any severity and determinism verified."""

    CLEAN = (
        os.path.join(FIXTURES, "lint_clean.py") + ":program",
        FIXED,
    )

    @pytest.mark.parametrize(
        "spec", CLEAN, ids=[os.path.basename(s.split(":")[0]) for s in CLEAN]
    )
    def test_clean(self, spec):
        code, text = run_cli("check", "--program", spec, "--ues", f"2:{N_CORES}", "--json")
        assert code == 0
        rows = json.loads(text)
        assert [row["n_ues"] for row in rows] == list(ALL_N)
        for row in rows:
            assert row["ok"] and row["deterministic"] is True, row
            assert row["findings"] == [], row
