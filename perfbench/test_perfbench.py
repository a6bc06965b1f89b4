"""Checks of the benchmark itself: run with ``python3 -m pytest perfbench``.

Each workload's traced run must drive the layers it was chosen for
(their metrics are non-zero) and bypass the ones it was chosen to avoid
(their metrics are exactly zero), and the metric names the runs print
must be the ones ``BENCHMARK.json`` declares.  A run takes 5-20 s.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: per workload: metrics that must be non-zero in its traced run.
DRIVES = {
    "figures": (
        "trace.characterize_calls",
        "locality.mrc_calls",
        "fastpath.summaries_calls",
        "timing.solve_batched_calls",
        "timing.barrier_calls",
        "experiment.run_calls.model",
        "experiment.self_s",
        "trace.characterize_share",
        "setup.sparse.build_calls",
        "setup.store.put_calls",
    ),
    "warm_sweep": (
        "experiment.run_calls.model",
        "experiment.run_calls.sim",
        "timing.solve_calls",
        "timing.solve_batched_calls",
        "timing.barrier_calls",
        "rcce.run_s",
        "sim.events",
        "sim.us_per_event",
        "setup.trace.characterize_calls",
        "setup.sparse.build_calls",
    ),
    "validate_exact": (
        "replay.calls",
        "replay.accesses",
        "replay.trace_gen_s",
        "vecreplay.access_s",
        "trace.characterize_calls",
        "store.get_calls",
        "store.put_calls",
        "setup.sparse.build_calls",
    ),
    "serve_mix": (
        "serve.admit_s",
        "serve.complete_s",
        "serve.claim_calls",
        "serve.http_requests",
        "serve.polls_per_job",
        "serve.queue_wait_s",
        "serve.dedup_ratio",
        "serve.simulations",
        "supervise.batch_s",
        "supervise.batches",
        "store.get_calls",
        "store.hit_ratio",
        "predict.infer_calls",
        "features.calls",
        "experiment.run_calls.predict",
        "setup.predict.train_s",
        "setup.features.calls",
        "setup.sparse.build_calls",
    ),
}

#: per workload: metrics that must be exactly zero in its traced run.
BYPASSES = {
    "figures": (
        "replay.calls",
        "experiment.run_calls.sim",
        "serve.http_requests",
        "predict.infer_calls",
    ),
    "warm_sweep": (
        "replay.calls",
        "trace.characterize_calls",
        "locality.mrc_calls",
        "serve.http_requests",
        "predict.infer_calls",
    ),
    "validate_exact": (
        "timing.solve_calls",
        "timing.solve_batched_calls",
        "timing.barrier_calls",
        "experiment.run_calls.model",
        "experiment.run_calls.sim",
        "serve.http_requests",
        "predict.infer_calls",
        "features.calls",
    ),
    "serve_mix": (
        "replay.calls",
        "experiment.run_calls.sim",
        "supervise.retries",
    ),
}


def _run(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def _declared(section: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


@pytest.fixture(scope="module")
def traced():
    return {w: _run(w, 1) for w in DRIVES}


@pytest.mark.parametrize("workload", sorted(DRIVES))
def test_layers_driven_and_bypassed(traced, workload):
    result = traced[workload]
    assert result["correct"] and result["failed"] == 0
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert [k for k in DRIVES[workload] if not values[k] > 0] == []
    assert [k for k in BYPASSES[workload] if values[k] != 0] == []


def test_traced_metrics_match_declared(traced):
    declared = _declared("per_layer")
    for result in traced.values():
        assert {k: m["unit"] for k, m in result["metrics"].items()} == declared


def test_untraced_metrics_match_declared():
    result = _run("warm_sweep", 0)
    assert result["correct"] and result["failed"] == 0
    assert {k: m["unit"] for k, m in result["metrics"].items()} == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "figures", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0 and out.stdout == ""
