"""The bench gate table, evaluated on the committed snapshot (no measurement)."""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro.bench import GATES, evaluate_gates, gate_verdict

BENCH = json.loads(
    (Path(__file__).resolve().parents[1] / "BENCH_spmv.json").read_text()
)

#: per row: the snapshot entry to edit and a value just past its bound.
CROSSINGS = {
    "model_mflops": ("model_mflops", BENCH["model_mflops"] * 0.69),
    "machine_model_mflops": (
        "machines.xeonphi-61.model_mflops",
        BENCH["machines"]["xeonphi-61"]["model_mflops"] * 0.69,
    ),
    "replay_bitwise_match": ("replay.bitwise_match", False),
    "replay_speedup": ("replay.speedup", 24.9),
    "supervise_overhead": ("supervise_overhead.overhead_pct", 50.1),
    "tracer_overhead": ("tracer_overhead_pct", 75.1),
    "serve_repeat_simulations": ("serve_dedup.repeat_simulations", 1),
    "serve_repeat_dedup_hits": (
        "serve_dedup.repeat_dedup_hits",
        BENCH["serve_dedup"]["points"] - 1,
    ),
    "predict_speedup": ("predict.predict_speedup_vs_model", 99.9),
    "predict_error": ("predict.median_rel_err_pct", 10.1),
}

#: wall-clock and error rows exactly at their bound, which passes.
AT_BOUND = {
    "replay_speedup": ("replay.speedup", 25.0),
    "supervise_overhead": ("supervise_overhead.overhead_pct", 50.0),
    "tracer_overhead": ("tracer_overhead_pct", 75.0),
    "predict_speedup": ("predict.predict_speedup_vs_model", 100.0),
    "predict_error": ("predict.median_rel_err_pct", 10.0),
}


def _with(path: str, value) -> dict:
    doc = copy.deepcopy(BENCH)
    *parents, leaf = path.split(".")
    node = doc
    for part in parents:
        node = node[part]
    node[leaf] = value
    return doc


def _statuses(checks) -> dict:
    return {(c["name"], c["path"]): c["status"] for c in checks}


def test_table_has_the_ten_rows():
    assert len(GATES) == 10
    assert set(CROSSINGS) == {g.name for g in GATES}


def test_committed_snapshot_passes_against_itself():
    verdict = gate_verdict(BENCH, BENCH, "BENCH_spmv.json")
    assert verdict["status"] == "ok"
    assert {c["name"] for c in verdict["checks"]} == set(CROSSINGS)
    assert {c["status"] for c in verdict["checks"]} == {"ok"}
    # the wildcard row checks every machine
    machine_paths = {
        c["path"] for c in verdict["checks"] if c["name"] == "machine_model_mflops"
    }
    assert machine_paths == {f"machines.{m}.model_mflops" for m in BENCH["machines"]}
    for check in verdict["checks"]:
        assert set(check) == {
            "name", "path", "measured", "bound", "direction", "deterministic", "status"
        }


@pytest.mark.parametrize("name", sorted(CROSSINGS))
def test_crossing_a_bound_fails_that_row_alone(name):
    path, value = CROSSINGS[name]
    verdict = gate_verdict(_with(path, value), BENCH, "BENCH_spmv.json")
    assert verdict["status"] == "fail"
    failed = [(c["name"], c["path"]) for c in verdict["checks"] if c["status"] == "fail"]
    assert failed == [(name, path)]


@pytest.mark.parametrize("name", sorted(AT_BOUND))
def test_value_at_the_bound_passes(name):
    path, value = AT_BOUND[name]
    checks = evaluate_gates(_with(path, value), BENCH)
    assert _statuses(checks)[(name, path)] == "ok"


def test_skipped_entry_reports_skipped():
    snapshot = _with("serve_dedup", {"skipped": "disk cache disabled"})
    verdict = gate_verdict(snapshot, BENCH, "BENCH_spmv.json")
    assert verdict["status"] == "ok"
    skipped = {c["name"] for c in verdict["checks"] if c["status"] == "skipped"}
    assert skipped == {"serve_repeat_simulations", "serve_repeat_dedup_hits"}


def test_machine_missing_from_baseline_is_skipped():
    baseline = copy.deepcopy(BENCH)
    del baseline["machines"]["ft2000plus-64"]
    statuses = _statuses(evaluate_gates(BENCH, baseline))
    assert statuses[("machine_model_mflops", "machines.ft2000plus-64.model_mflops")] == (
        "skipped"
    )
    assert statuses[("machine_model_mflops", "machines.scc-48.model_mflops")] == "ok"


def test_entry_missing_from_snapshot_fails():
    snapshot = copy.deepcopy(BENCH)
    del snapshot["predict"]
    verdict = gate_verdict(snapshot, BENCH, "BENCH_spmv.json")
    assert verdict["status"] == "fail"
    failed = {c["name"] for c in verdict["checks"] if c["status"] == "fail"}
    assert failed == {"predict_speedup", "predict_error"}
