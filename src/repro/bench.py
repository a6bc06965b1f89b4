"""``repro bench``: the benchmark snapshot and the gate over it.

``bench snapshot`` measures one experiment point and writes
``BENCH_spmv.json``: the model's *simulated* throughput
(``model_mflops``, deterministic), the wall-clock cost of a run with
and without a live tracer, a core-count sweep, the supervised
executor's overhead over a bare fork pool (``supervise_overhead``), the
scalar-vs-vectorized exact replay speedup with a bitwise check of their
counts (``replay``), per-machine model throughput (``machines``), the
campaign server's dedup path (``serve_dedup``) and the predictor tier's
speed and error against the model (``predict``).  Wall-clock figures
are warmed medians, so the snapshot reports cost, not noise.

``bench gate`` takes a fresh snapshot and checks it against
:data:`GATES`, one row per bounded quantity; :func:`evaluate_gates` is
the pure function that does it.  Deterministic rows can only move when
the model changed; wall-clock rows are bounded far from their measured
values, so host noise cannot trip them.
"""

from __future__ import annotations

import argparse
import json
import operator
import statistics
import time
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Optional, TextIO, Tuple, Union

from .cliutil import add_output_flag, add_point_flags, open_output, resolve_point
from .core.experiment import ExperimentResult, SpMVExperiment
from .machine.base import DEFAULT_MACHINE
from .obs.tracer import Tracer
from .sparse.suite import build_matrix, entry_by_id

__all__ = [
    "GATES",
    "Gate",
    "evaluate_gates",
    "gate_verdict",
    "configure_bench_parser",
    "run_bench",
    "bench_main",
]

#: core counts of the snapshot's sweep measurement.
BENCH_SWEEP_COUNTS = (1, 2, 4, 8)
#: timed repeats per wall-clock figure, after one untimed warmup.
REPEATS = 5
#: the replay benchmark: sparsine, the locality worst case, at a scale
#: giving a >1M-access trace per pass, replayed for 16 passes.
REPLAY_MATRIX_ID = 14
REPLAY_SCALE = 0.25
REPLAY_ITERATIONS = 16


class Gate(NamedTuple):
    """One gate row: the snapshot value at ``path`` must satisfy ``bound``.

    ``direction`` is ``min`` (value >= bound), ``max`` (value <= bound),
    ``eq`` (value == bound; a ``str`` bound names another snapshot
    path) or ``max_drop`` (the fractional drop of the value against the
    baseline's is <= bound).  A ``*`` in ``path`` expands to every key
    of the snapshot entry before it.  ``deterministic`` rows measure
    simulated quantities or counts; the others measure wall clock.
    """

    name: str
    path: str
    bound: Union[float, bool, str]
    direction: str
    deterministic: bool


GATES: Tuple[Gate, ...] = (
    Gate("model_mflops", "model_mflops", 0.30, "max_drop", True),
    Gate("machine_model_mflops", "machines.*.model_mflops", 0.30, "max_drop", True),
    Gate("replay_bitwise_match", "replay.bitwise_match", True, "eq", True),
    Gate("replay_speedup", "replay.speedup", 25.0, "min", False),
    Gate("supervise_overhead", "supervise_overhead.overhead_pct", 50.0, "max", False),
    Gate("tracer_overhead", "tracer_overhead_pct", 75.0, "max", False),
    Gate("serve_repeat_simulations", "serve_dedup.repeat_simulations", 0, "eq", True),
    Gate(
        "serve_repeat_dedup_hits",
        "serve_dedup.repeat_dedup_hits",
        "serve_dedup.points",
        "eq",
        True,
    ),
    Gate("predict_speedup", "predict.predict_speedup_vs_model", 100.0, "min", False),
    Gate("predict_error", "predict.median_rel_err_pct", 10.0, "max", True),
)

_PASSES: Dict[str, Callable[[Any, Any], bool]] = {
    "min": operator.ge,
    "max": operator.le,
    "max_drop": operator.le,
    "eq": operator.eq,
}


def _lookup(doc: dict, path: str) -> Tuple[Any, Optional[str]]:
    """``(value, skip reason)`` at dotted ``path``; value None when absent.

    An entry on the way that reports ``{"skipped": reason}`` ends the
    walk with that reason.
    """
    node: Any = doc
    for part in path.split("."):
        if not isinstance(node, dict):
            return None, None
        if "skipped" in node:
            return None, str(node["skipped"])
        node = node.get(part)
    return node, None


def _paths(gate: Gate, snapshot: dict) -> List[str]:
    head, star, tail = gate.path.partition(".*.")
    if not star:
        return [gate.path]
    entry, _ = _lookup(snapshot, head)
    if not isinstance(entry, dict):
        return [gate.path]
    return [f"{head}.{key}.{tail}" for key in sorted(entry)]


def _check(gate: Gate, path: str, snapshot: dict, baseline: dict) -> dict:
    measured, skipped = _lookup(snapshot, path)
    bound = gate.bound
    if isinstance(bound, str):
        bound = _lookup(snapshot, bound)[0]
    if gate.direction == "max_drop" and not skipped:
        base = _lookup(baseline, path)[0]
        if not base:
            skipped = "not in the baseline"
        elif measured is not None:
            measured = (base - measured) / base
    if skipped:
        status = "skipped"
    elif measured is None:
        status = "fail"
    else:
        status = "ok" if _PASSES[gate.direction](measured, bound) else "fail"
    return {
        "name": gate.name,
        "path": path,
        "measured": measured,
        "bound": bound,
        "direction": gate.direction,
        "deterministic": gate.deterministic,
        "status": status,
    }


def evaluate_gates(snapshot: dict, baseline: dict) -> List[dict]:
    """One check per :data:`GATES` row (per key for ``*`` rows).

    Each check reports ``status`` ``ok``, ``fail`` (bound crossed, or
    the value is missing from the snapshot) or ``skipped`` (its entry
    reports ``skipped``, or a ``max_drop`` row has no baseline value).
    For ``max_drop`` rows ``measured`` is the fractional drop.
    """
    return [
        _check(gate, path, snapshot, baseline)
        for gate in GATES
        for path in _paths(gate, snapshot)
    ]


def gate_verdict(snapshot: dict, baseline: dict, baseline_path: str) -> dict:
    """The ``bench gate`` verdict: ``fail`` when any check failed."""
    checks = evaluate_gates(snapshot, baseline)
    return {
        "status": "fail" if any(c["status"] == "fail" for c in checks) else "ok",
        "baseline": baseline_path,
        "checks": checks,
        "snapshot": snapshot,
    }


def configure_bench_parser(p: argparse.ArgumentParser) -> None:
    """Add the ``repro bench`` arguments to an existing parser."""
    p.add_argument(
        "action",
        choices=("snapshot", "gate"),
        help="'snapshot' measures model throughput and tracer overhead; "
        "'gate' checks a fresh measurement against the bounds table and "
        "--baseline and exits non-zero on any failed check",
    )
    add_point_flags(p)
    p.add_argument(
        "--mode",
        choices=("sim", "model"),
        default="model",
        help="timing path to benchmark: the analytic fast path (model, "
        "default) or the event-driven simulator (sim)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the sweep measurement (default 1)",
    )
    p.add_argument(
        "--baseline",
        type=str,
        default="BENCH_spmv.json",
        help="baseline snapshot for 'gate' (default BENCH_spmv.json)",
    )
    add_output_flag(p)


def build_bench_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro bench",
        description="Benchmark snapshots of the simulator (BENCH_spmv.json).",
    )
    configure_bench_parser(p)
    return p


#: experiment memo of every measurement, keyed (matrix id, scale,
#: machine): rebuilding the matrix per repeat would swamp the timed
#: region with construction cost.  Forked sweep workers inherit it.
_EXPERIMENTS: Dict[Tuple[int, float, str], SpMVExperiment] = {}


def _experiment(matrix_id: int, scale: float, machine: str = DEFAULT_MACHINE) -> SpMVExperiment:
    key = (matrix_id, scale, machine)
    exp = _EXPERIMENTS.get(key)
    if exp is None:
        exp = _EXPERIMENTS[key] = SpMVExperiment(
            build_matrix(matrix_id, scale=scale),
            name=entry_by_id(matrix_id).name,
            machine=machine,
        )
    return exp


def _sweep_task(task: Tuple[int, float, dict]) -> ExperimentResult:
    """Picklable sweep task ``(matrix id, scale, run kwargs)``."""
    matrix_id, scale, spec = task
    return _experiment(matrix_id, scale).run(**spec)


def _point_spec(args: argparse.Namespace) -> dict:
    return dict(
        n_cores=args.cores,
        mapping=args.mapping,
        kernel=args.kernel,
        iterations=args.iterations,
        mode=args.mode,
    )


def _median_wallclock(run: Callable[[], Any]) -> float:
    """Median-of-:data:`REPEATS` wall-clock seconds of one ``run()``.

    One untimed warmup populates every cache (matrix build, partition,
    traces, fast-path schedules) before the timed repeats — without it
    and the median, first-run build cost and scheduler noise used to
    show up as bogus tracer overhead.  timeit-style batching: runs are
    timed in batches so one sample spans >= ~5 ms and scheduler jitter
    averages out.
    """
    t0 = time.perf_counter()
    run()
    warm_s = time.perf_counter() - t0
    batch = max(1, min(200, int(0.005 / max(warm_s, 1e-6))))
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(batch):
            run()
        samples.append((time.perf_counter() - t0) / batch)
    return statistics.median(samples)


def _time_run(args: argparse.Namespace, traced: bool) -> float:
    """Median wall-clock seconds of the point, untraced or traced."""
    run = partial(_experiment(args.matrix_id, args.scale).run, **_point_spec(args))
    if not traced:
        return _median_wallclock(run)
    # A fresh tracer per run keeps every batched run's work identical.
    return _median_wallclock(lambda: run(tracer=Tracer()))


def _sweep_tasks(args: argparse.Namespace) -> list:
    """The core-count sweep as :func:`_sweep_task` tuples."""
    spec = _point_spec(args)
    return [
        (args.matrix_id, args.scale, dict(spec, n_cores=n))
        for n in BENCH_SWEEP_COUNTS
    ]


def _time_sweep(args: argparse.Namespace) -> float:
    """Wall-clock seconds of a core-count sweep sharded over --workers."""
    from .core.supervise import supervised_parallel_map

    tasks = _sweep_tasks(args)
    supervised_parallel_map(_sweep_task, tasks, args.workers)  # warmup
    t0 = time.perf_counter()
    supervised_parallel_map(_sweep_task, tasks, args.workers)
    return time.perf_counter() - t0


def _measure_supervise(args: argparse.Namespace) -> dict:
    """Supervised-vs-bare pool overhead (the ``supervise_overhead`` entry).

    Runs the sweep task list through a bare stdlib
    :class:`~concurrent.futures.ProcessPoolExecutor` (the reference leg,
    kept here only to measure against) and through
    :func:`~repro.core.supervise.supervised_parallel_map` under the
    default policy.  No faults are injected, so every task succeeds
    on attempt 1 and the wall-clock delta is pure supervision
    machinery: per-worker pipes, deadline polling, backoff bookkeeping
    and metrics accounting.  Both legs use at least two workers so each
    exercises a real fork pool, and measurements come in adjacent
    (bare, supervised) pairs with the fastest-bare pair kept.  The
    supervise counters of the final run ride along as evidence that
    nothing was retried or respawned during timing.
    """
    from concurrent.futures import ProcessPoolExecutor

    from .core.supervise import (
        SupervisePolicy,
        available_parallelism,
        fork_context,
        supervised_parallel_map,
    )
    from .obs.metrics import MetricsRegistry, summary_prefix

    workers = max(2, args.workers)
    tasks = _sweep_tasks(args)
    policy = SupervisePolicy()

    def identity(task: tuple) -> str:
        return f"bench:{task[0]}:{task[2]['n_cores']}"

    def bare() -> float:
        t0 = time.perf_counter()
        with ProcessPoolExecutor(
            max_workers=min(workers, available_parallelism()),
            mp_context=fork_context(),
        ) as pool:
            list(pool.map(_sweep_task, tasks))
        return time.perf_counter() - t0

    def supervised(registry: MetricsRegistry) -> float:
        t0 = time.perf_counter()
        supervised_parallel_map(
            _sweep_task,
            tasks,
            workers,
            policy,
            identity=identity,
            metrics=registry,
        )
        return time.perf_counter() - t0

    bare()  # warmup: populate matrix/trace caches, untimed
    supervised(MetricsRegistry())
    pairs = []
    for _ in range(3):
        registry = MetricsRegistry()
        pairs.append((bare(), supervised(registry), registry))
    bare_s, supervised_s, registry = min(pairs, key=lambda p: p[0])
    counters = {
        key: int(value)
        for key, value in summary_prefix(
            registry.flat_summary(), "supervise"
        ).items()
        if isinstance(value, (int, float))
    }
    return {
        "workers": workers,
        "tasks": len(tasks),
        "max_retries": policy.max_retries,
        "wallclock_bare_s": bare_s,
        "wallclock_supervised_s": supervised_s,
        "overhead_pct": 100.0 * (supervised_s - bare_s) / bare_s,
        "counters": counters,
    }


def _measure_replay() -> dict:
    """Scalar-vs-vectorized exact-replay benchmark (the ``replay`` entry).

    The scalar oracle walks the hierarchy one address per Python
    iteration with no cross-iteration shortcut, so its cost is linear in
    the pass count: one pass is timed and scaled to the vectorized
    engine's iteration count (timing all passes would add minutes
    without changing the ratio).  The vectorized run is timed end to
    end — schedule compilation, set-parallel replay and iteration-cycle
    fast-forward included — with the disk cache off, on a fresh
    hierarchy; the best of three repeats is reported, since the run is
    short enough (sub-second) that transient machine load would
    otherwise dominate the ratio.  ``bitwise_match`` records whether
    both engines produced identical counts for the timed pass.
    """
    from .scc.tracegen import replay_trace

    a = build_matrix(REPLAY_MATRIX_ID, scale=REPLAY_SCALE)
    its = REPLAY_ITERATIONS
    t0 = time.perf_counter()
    scalar_counts = replay_trace(a, iterations=1, engine="scalar")
    scalar_1iter_s = time.perf_counter() - t0
    vectorized_s = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        vec_counts = replay_trace(
            a, iterations=its, engine="vectorized", use_disk_cache=False
        )
        vectorized_s = min(vectorized_s, time.perf_counter() - t0)
    vec_1iter = replay_trace(
        a, iterations=1, engine="vectorized", use_disk_cache=False
    )
    scalar_est_s = scalar_1iter_s * its
    return {
        "matrix": entry_by_id(REPLAY_MATRIX_ID).name,
        "matrix_id": REPLAY_MATRIX_ID,
        "scale": REPLAY_SCALE,
        "iterations": its,
        "accesses_per_pass": 3 * a.n_rows + 3 * a.nnz,
        "bitwise_match": vec_1iter == scalar_counts,
        "wallclock_scalar_1iter_s": scalar_1iter_s,
        "wallclock_scalar_est_s": scalar_est_s,
        "wallclock_vectorized_s": vectorized_s,
        "speedup": scalar_est_s / vectorized_s,
        "l1_hits": vec_counts.l1_hits,
        "l2_hits": vec_counts.l2_hits,
        "mem_misses": vec_counts.mem_misses,
    }


def _measure_machines(args: argparse.Namespace) -> dict:
    """Per-machine analytic-path timings (the ``machines`` entry).

    One model-mode run per registered machine
    (:func:`repro.machine.list_machines`) on the same matrix as the
    main measurement: ``model_mflops``/``model_makespan_s`` are
    deterministic per machine (the gate compares them against the
    baseline), ``wallclock_model_s`` is a warmed median like every
    other wall-clock figure in the snapshot.
    """
    from .machine.registry import get_machine, list_machines

    out = {}
    for machine_id in list_machines():
        machine = get_machine(machine_id)
        spec = dict(
            _point_spec(args),
            n_cores=min(args.cores, machine.topology.n_cores),
            mode="model",
        )
        run = partial(_experiment(args.matrix_id, args.scale, machine_id).run, **spec)
        result = run()
        out[machine_id] = {
            "n_cores": spec["n_cores"],
            "model_mflops": result.mflops,
            "model_makespan_s": result.makespan,
            "wallclock_model_s": _median_wallclock(run),
        }
    return out


def _measure_serve_dedup(args: argparse.Namespace) -> dict:
    """Cold vs dedup-hit latency through the campaign server (the
    ``serve_dedup`` entry).

    An in-process :class:`repro.serve.CampaignServer` on an ephemeral
    port, private store: the same spec is submitted twice over HTTP.
    The first submission simulates every point (cold), the second must
    be answered entirely from the content store — ``repeat_simulations``
    / ``repeat_dedup_hits`` are deterministic (gated), the wall-clock
    speedup is informational like every latency figure here.
    """
    import tempfile

    from .core.supervise import fork_context
    from .store import cache_enabled

    if fork_context() is None:  # pragma: no cover - platform-dependent
        return {"skipped": "fork start method unavailable"}
    if not cache_enabled():
        return {"skipped": "disk cache disabled (REPRO_NO_DISK_CACHE)"}

    from .serve.client import ServeClient
    from .serve.protocol import CampaignSpec
    from .serve.server import CampaignServer

    spec = CampaignSpec(
        ids=(args.matrix_id,),
        core_counts=tuple(sorted({1, args.cores})),
        mappings=(args.mapping,),
        kernels=(args.kernel,),
        scale=args.scale,
        iterations=args.iterations,
        mode="model",
    )
    with tempfile.TemporaryDirectory(prefix="repro-serve-bench-") as tmp:
        tmp_path = Path(tmp)
        server = CampaignServer(
            tmp_path / "data", workers=2, store_root=tmp_path / "cache"
        )
        server.start()
        try:
            with ServeClient(server.url) as client:
                t0 = time.perf_counter()
                cold = client.wait(
                    str(client.submit(spec)["job_id"]), timeout=600.0, poll_s=0.01
                )
                cold_s = time.perf_counter() - t0
                t0 = time.perf_counter()
                hit = client.wait(
                    str(client.submit(spec)["job_id"]), timeout=600.0, poll_s=0.01
                )
                hit_s = time.perf_counter() - t0
        finally:
            server.stop()
    return {
        "points": cold["points"],
        "cold_wallclock_s": cold_s,
        "dedup_wallclock_s": hit_s,
        "dedup_speedup": cold_s / hit_s if hit_s else float("inf"),
        "cold_simulations": cold["simulated"],
        "repeat_simulations": hit["simulated"],
        "repeat_dedup_hits": hit["dedup_hits"],
    }


def _measure_predict() -> dict:
    """Predict-vs-model differential benchmark (the ``predict`` entry).

    Delegates to :func:`repro.predict.harness.differential_report`:
    per machine-zoo member, a timed cold ``mode="model"`` sweep labels
    the grid, a predictor is trained on those labels, and a fresh
    ``mode="predict"`` sweep (feature memos cleared, so extraction is
    paid in full) answers the same grid.  The headline numbers are the
    aggregate wall-clock ratio and the *worst* per-machine median
    relative makespan error — the two quantities the gate bounds.  The
    exact-trace leg is skipped here; the differential test suite
    covers it.
    """
    from .predict.harness import differential_report

    report = differential_report(include_exact=False)
    agg = report["aggregate"]
    return {
        "grid": report["grid"],
        "predict_speedup_vs_model": agg["speedup"],
        "median_rel_err_pct": agg["worst_median_rel_err_pct"],
        "wallclock_model_s": agg["t_model_s"],
        "wallclock_predict_s": agg["t_predict_s"],
        "per_machine": {
            machine_id: {
                "n_points": m["n_points"],
                "speedup": m["speedup"],
                "median_rel_err_pct": m["median_rel_err_pct"],
                "p90_rel_err_pct": m["p90_rel_err_pct"],
            }
            for machine_id, m in report["machines"].items()
        },
    }


def _measure_snapshot(args: argparse.Namespace) -> dict:
    """The full ``bench snapshot`` measurement as a dict."""
    resolve_point(args, "repro bench")
    result = _experiment(args.matrix_id, args.scale).run(**_point_spec(args))
    # Interleaved rounds, independent minima: machine speed drifts on
    # timescales longer than one measurement, so each variant keeps its
    # own fastest window.  A pair-based scheme (fastest untraced pair
    # wins) still let a slow window land on the *traced* half of the
    # winning pair and swing the overhead figure by tens of percentage
    # points on a loaded host; the per-variant minimum of interleaved
    # rounds converges on the true cost of each side.
    _time_run(args, traced=True)  # process-level warmup, untimed
    rounds = [
        (_time_run(args, traced=False), _time_run(args, traced=True))
        for _ in range(5)
    ]
    untraced_s = min(r[0] for r in rounds)
    traced_s = min(r[1] for r in rounds)
    return {
        "benchmark": "spmv_model",
        "matrix": result.matrix_name,
        "n_cores": result.n_cores,
        "iterations": result.iterations,
        "scale": args.scale,
        "mode": args.mode,
        "workers": args.workers,
        "model_makespan_s": result.makespan,
        "model_mflops": result.mflops,
        "wallclock_untraced_s": untraced_s,
        "wallclock_traced_s": traced_s,
        "tracer_overhead_pct": 100.0 * (traced_s - untraced_s) / untraced_s,
        "sweep_core_counts": list(BENCH_SWEEP_COUNTS),
        "sweep_wallclock_s": _time_sweep(args),
        "supervise_overhead": _measure_supervise(args),
        "replay": _measure_replay(),
        "machines": _measure_machines(args),
        "serve_dedup": _measure_serve_dedup(args),
        "predict": _measure_predict(),
    }


def run_bench(args: argparse.Namespace, out: Optional[TextIO] = None) -> int:
    """Execute ``repro bench``; writes the snapshot (or gate verdict) JSON."""
    if args.workers < 1:
        raise SystemExit(f"--workers must be >= 1, got {args.workers}")
    if args.action == "snapshot":
        report = _measure_snapshot(args)
        status = "ok"
    else:
        try:
            with open(args.baseline, "r", encoding="utf-8") as fh:
                baseline = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise SystemExit(f"repro bench gate: cannot read baseline: {exc}") from exc
        report = gate_verdict(_measure_snapshot(args), baseline, args.baseline)
        status = report["status"]
    if not args.output:
        args.output = "BENCH_spmv.json" if args.action == "snapshot" else "BENCH_gate.json"
    with open_output(args, out) as stream:
        stream.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 1 if status == "fail" else 0


def bench_main(argv=None, out: Optional[TextIO] = None) -> int:
    """Entry point for ``repro bench``; returns a process exit code."""
    return run_bench(build_bench_parser().parse_args(argv), out=out)
