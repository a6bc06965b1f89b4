"""Command-line interface: regenerate any paper artifact from a shell.

Usage::

    python -m repro run table1 --scale 0.2
    python -m repro run fig5 --scale 0.2 --ids 7,14,24
    python -m repro run all --scale 0.1
    python -m repro run --validate-exact --scale 0.25
    python -m repro lint examples/ src/repro/apps/
    python -m repro check --program myprog.py:ue_main --ues 2:48
    python -m repro run --repair results/sweep.jsonl
    python -m repro chaos --seed 0 --workers 4
    python -m repro trace --cores 4 --export chrome --output trace.json
    python -m repro bench snapshot
    python -m repro serve --workers 4
    python -m repro submit --ids 7,24 --cores 1,4,16 --wait
    python -m repro status

Artifacts are generated only through ``run``: a bare artifact name
(``python -m repro fig5``) exits with status 2 and points at
``repro run fig5``.

Output is the same tabular rendering the benchmark harness prints; the
benchmark harness additionally asserts the paper's findings, so use
``pytest benchmarks/ --benchmark-only`` for a checked reproduction.
``lint`` and ``check`` are the correctness tooling of
:mod:`repro.analysis` (see ``docs/ANALYSIS.md``); ``chaos`` attacks
the supervised sweep executor and the content store (see
``docs/ROBUSTNESS.md``); ``trace`` is the observability layer (see
``docs/OBSERVABILITY.md``) and ``bench`` the benchmark snapshot and
gate (see ``docs/PERFORMANCE.md``); ``serve``/``submit``/``status``/
``result`` are the campaign service (see ``docs/SERVING.md``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from .cliutil import (
    add_output_flag,
    add_supervise_flags,
    int_list,
    open_output,
    policy_from_args,
    resolve_format,
)
from .core.figures import (
    DEFAULT_MODE,
    FIG3_HOPS,
    FIG5_CORE_COUNTS,
    FIG6_CORE_COUNTS,
    FIG7_CORE_COUNTS,
    FIG9_CORE_COUNTS,
    fig3_data,
    fig5_data,
    fig6_data,
    fig7_data,
    fig8_data,
    fig9_data,
    fig9_summary,
    fig10_data,
    suite_experiments,
    table1_data,
)
from .core.metrics import average_gflops
from .core.report import banner, format_series, format_table
from .machine.base import DEFAULT_MACHINE
from .machine.registry import get_machine, list_machines
from .scc.chip import CONF0, CONF1

__all__ = ["main", "build_parser", "COMMANDS", "ARTIFACTS"]

ARTIFACTS = ("table1", "fig3", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10")

#: every first-class subcommand of the unified parser.
COMMANDS = (
    "run", "lint", "check", "chaos", "trace", "bench",
    "serve", "submit", "status", "result", "predict",
)

#: subcommands implemented by repro.analysis.cli (kept for callers that
#: dispatch on these names; the unified parser mounts them directly).
ANALYSIS_COMMANDS = ("lint", "check")


def _configure_run_parser(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "artifact",
        nargs="?",
        choices=ARTIFACTS + ("all", "validate"),
        help="which paper artifact to regenerate ('validate' runs model "
        "self-checks); optional when --validate-exact or --repair is given",
    )
    p.add_argument(
        "--scale",
        type=float,
        default=0.25,
        help="matrix-size scale; 1.0 = published UFL sizes (default 0.25)",
    )
    p.add_argument(
        "--ids",
        type=str,
        default="",
        help="comma-separated Table I matrix ids to restrict the suite",
    )
    p.add_argument(
        "--iterations",
        type=int,
        default=16,
        help="SpMV repetitions per timed run (default 16)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes to shard the sweep over (default 1 = serial)",
    )
    p.add_argument(
        "--machine",
        choices=list_machines(),
        default=DEFAULT_MACHINE,
        help="machine model to run the sweep on (default %(default)s; "
        "see docs/MACHINES.md)",
    )
    p.add_argument(
        "--exact",
        action="store_true",
        help="replay every run on the event-driven simulator instead of "
        "the analytic fast path (same numbers, much slower; see "
        "docs/PERFORMANCE.md)",
    )
    p.add_argument(
        "--mode",
        choices=("sim", "model", "exact-trace", "predict"),
        default=None,
        help="answer tier for every sweep point (default: model, or sim "
        "with --exact); 'predict' answers from the machine's trained "
        "predictor and falls back to the model when none is stored "
        "(see docs/PREDICTOR.md)",
    )
    p.add_argument(
        "--validate-exact",
        action="store_true",
        help="compare the analytic cache model's miss ratios against "
        "bitwise-exact vectorized trace replay over the suite, one row "
        "per matrix (honours --scale/--ids/--iterations; see "
        "docs/MODEL.md)",
    )
    p.add_argument(
        "--repair",
        type=str,
        default="",
        metavar="JSONL",
        help="repair a campaign file (quarantine corrupt lines) and exit",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="with --repair: print the repair summary as JSON",
    )
    add_supervise_flags(p)
    add_output_flag(p)


def build_parser() -> argparse.ArgumentParser:
    """Construct the unified argparse parser for ``python -m repro``."""
    from .analysis.cli import configure_check_parser, configure_lint_parser
    from .bench import configure_bench_parser
    from .chaos import configure_chaos_parser
    from .obs.cli import configure_trace_parser

    p = argparse.ArgumentParser(
        prog="repro",
        description="The SCC SpMV paper reproduction: artifacts, analysis "
        "tooling, chaos testing and observability.",
    )
    sub = p.add_subparsers(dest="command", metavar="command")

    run_p = sub.add_parser(
        "run", help="regenerate paper tables/figures on the model"
    )
    _configure_run_parser(run_p)
    run_p.set_defaults(handler=_run_artifacts)

    lint_p = sub.add_parser(
        "lint", help="statically lint RCCE/simulator programs"
    )
    configure_lint_parser(lint_p)
    lint_p.set_defaults(handler=_dispatch_lint)

    check_p = sub.add_parser(
        "check", help="run programs under the dynamic race/deadlock checkers"
    )
    configure_check_parser(check_p)
    check_p.set_defaults(handler=_dispatch_check)

    chaos_p = sub.add_parser(
        "chaos",
        help="OS-level chaos harness: SIGKILL/SIGSTOP workers and corrupt "
        "store entries under supervision, then verify the invariants",
    )
    configure_chaos_parser(chaos_p)
    chaos_p.set_defaults(handler=_dispatch_chaos)

    trace_p = sub.add_parser(
        "trace", help="run one traced experiment and export the trace"
    )
    configure_trace_parser(trace_p)
    trace_p.set_defaults(handler=_dispatch_trace)

    bench_p = sub.add_parser(
        "bench", help="benchmark snapshots (model throughput, tracer overhead)"
    )
    configure_bench_parser(bench_p)
    bench_p.set_defaults(handler=_dispatch_bench)

    from .serve.cli import (
        configure_result_parser,
        configure_serve_parser,
        configure_status_parser,
        configure_submit_parser,
    )

    serve_p = sub.add_parser(
        "serve",
        help="run the campaign server: HTTP job queue with store-backed "
        "dedup over a supervised worker pool (see docs/SERVING.md)",
    )
    configure_serve_parser(serve_p)
    serve_p.set_defaults(handler=_dispatch_serve)

    submit_p = sub.add_parser(
        "submit", help="submit a campaign spec to a running `repro serve`"
    )
    configure_submit_parser(submit_p)
    submit_p.set_defaults(handler=_dispatch_submit)

    status_p = sub.add_parser(
        "status", help="job states and dedup/simulation counts of the server"
    )
    configure_status_parser(status_p)
    status_p.set_defaults(handler=_dispatch_status)

    result_p = sub.add_parser(
        "result", help="fetch a finished server job's records"
    )
    configure_result_parser(result_p)
    result_p.set_defaults(handler=_dispatch_result)

    from .predict.cli import configure_predict_parser

    predict_p = sub.add_parser(
        "predict",
        help="train/evaluate/inspect the feature-based performance "
        "predictor behind mode='predict' (see docs/PREDICTOR.md)",
    )
    configure_predict_parser(predict_p)
    predict_p.set_defaults(handler=_dispatch_predict)

    return p


def _parse_ids(raw: str) -> Optional[List[int]]:
    """``--ids`` of ``repro run``: an empty selection means the whole suite."""
    return int_list(raw, "--ids") or None


def _render(
    artifact: str,
    exps,
    iterations: int,
    out,
    mode: str = "model",
    workers: int = 1,
    policy=None,
) -> None:
    if artifact == "table1":
        rows = table1_data(exps)
        print(banner("Table I: matrix benchmark suite"), file=out)
        print(
            format_table(
                rows,
                ["id", "name", "n", "nnz", "nnz_per_row", "ws_mbytes", "family"],
            ),
            file=out,
        )
    elif artifact == "fig3":
        data = fig3_data(exps, iterations, mode=mode, workers=workers, policy=policy)
        series = [data[h] for h in FIG3_HOPS]
        rel = [100 * (1 - v / series[0]) for v in series]
        print(banner("Fig. 3: single-core performance vs hops to MC"), file=out)
        print(
            format_series(
                "hops", FIG3_HOPS, {"avg MFLOPS/s": series, "degradation %": rel}
            ),
            file=out,
        )
    elif artifact == "fig5":
        std, dr = fig5_data(exps, iterations, mode=mode, workers=workers, policy=policy)
        print(banner("Fig. 5: standard vs distance-reduction mapping"), file=out)
        print(
            format_series(
                "cores",
                FIG5_CORE_COUNTS,
                {
                    "standard MFLOPS/s": std,
                    "dist-reduction MFLOPS/s": dr,
                    "speedup": [d / s for d, s in zip(dr, std)],
                },
            ),
            file=out,
        )
    elif artifact == "fig6":
        rows = fig6_data(exps, iterations, mode=mode, workers=workers, policy=policy)
        cols = ["id", "name"]
        for n in FIG6_CORE_COUNTS:
            cols += [f"wsKB/core@{n}", f"MFLOPS@{n}"]
        print(banner("Fig. 6: performance vs working set"), file=out)
        print(format_table(rows, cols, floatfmt=".1f"), file=out)
    elif artifact == "fig7":
        with_l2, without_l2 = fig7_data(exps, iterations, mode=mode, workers=workers, policy=policy)
        on = [average_gflops(with_l2[n]) * 1000 for n in FIG7_CORE_COUNTS]
        off = [average_gflops(without_l2[n]) * 1000 for n in FIG7_CORE_COUNTS]
        print(banner("Fig. 7: L2 caches disabled"), file=out)
        print(
            format_series(
                "cores",
                FIG7_CORE_COUNTS,
                {
                    "with L2 MFLOPS/s": on,
                    "without L2 MFLOPS/s": off,
                    "loss %": [100 * (1 - o / w) for o, w in zip(off, on)],
                },
                floatfmt=".1f",
            ),
            file=out,
        )
    elif artifact == "fig8":
        rows = fig8_data(exps, iterations, mode=mode, workers=workers, policy=policy)
        cols = ["id", "name"] + [f"speedup@{n}" for n in FIG6_CORE_COUNTS]
        print(banner("Fig. 8: no-x-miss kernel speedup"), file=out)
        print(format_table(rows, cols), file=out)
    elif artifact == "fig9":
        results = fig9_data(exps, iterations, mode=mode, workers=workers, policy=policy)
        perf, eff = fig9_summary(results)
        print(banner("Fig. 9(a): performance per configuration"), file=out)
        print(
            format_series(
                "cores",
                FIG9_CORE_COUNTS,
                {f"{name} MFLOPS/s": series for name, series in perf.items()},
                floatfmt=".1f",
            ),
            file=out,
        )
        machine = exps[0][1].machine
        print(banner("Fig. 9(b): full-system power efficiency"), file=out)
        print(
            format_table(
                [
                    {
                        "config": cfg.name,
                        "watts": machine.chip_power(cfg),
                        "MFLOPS/W": eff[cfg.name],
                    }
                    for cfg in machine.presets.values()
                ],
                ["config", "watts", "MFLOPS/W"],
            ),
            file=out,
        )
    elif artifact == "fig10":
        rows = sorted(fig10_data(exps, iterations, mode=mode, workers=workers, policy=policy), key=lambda r: r["gflops"])
        print(banner("Fig. 10: architectural comparison"), file=out)
        print(
            format_table(
                rows, ["system", "gflops", "watts", "mflops_per_watt", "source"]
            ),
            file=out,
        )
    else:  # pragma: no cover - parser restricts choices
        raise SystemExit(f"unknown artifact {artifact!r}")


def _render_validation(out) -> int:
    """Model self-checks: trace-exact replay, MC queue, kernel numerics.

    Returns the number of failed checks (0 = healthy).
    """
    import numpy as np

    from .core.trace import access_summary, characterize_partition
    from .scc.mcqueue import CoreWorkload, simulate_controller
    from .scc.tracegen import replay_trace
    from .sparse import banded, partition_rows_balanced, random_uniform, spmv
    from .sparse.fastpath import equilibrium_line_times

    failures = 0
    rows = []

    # 1. Analytical stream model vs trace-exact cache replay.
    for label, a in (
        ("banded", banded(2500, 10.0, 14, seed=1)),
        ("random", random_uniform(2500, 10.0, seed=2)),
    ):
        [trace] = characterize_partition(a, partition_rows_balanced(a, 1))
        model = access_summary(trace, iterations=1).l2_misses
        exact = replay_trace(a, iterations=1).mem_misses
        err = 100 * abs(model - exact) / max(exact, 1)
        ok = err < 30.0
        failures += not ok
        rows.append(
            {"check": f"trace-exact misses ({label})", "result": f"{err:.1f}% err",
             "status": "ok" if ok else "FAIL"}
        )

    # 2. Closed-form MC equilibrium vs event-driven FIFO queue.
    wl = CoreWorkload(compute_time=0.005, n_lines=20_000, latency=132.5e-9)
    capacity = 0.95e9 / 32
    event = max(simulate_controller([wl] * 12, capacity))
    line_time = equilibrium_line_times(
        np.full(12, wl.compute_time), np.full(12, float(wl.n_lines)),
        np.full(12, wl.latency), np.zeros(12, dtype=np.int64), [capacity],
    )[0]
    closed = wl.compute_time + wl.n_lines * line_time
    err = 100 * abs(closed - event) / event
    ok = err < 10.0
    failures += not ok
    rows.append(
        {"check": "MC equilibrium vs queue", "result": f"{err:.1f}% err",
         "status": "ok" if ok else "FAIL"}
    )

    # 3. Kernel numerics vs SciPy.
    a = banded(1500, 8.0, 10, seed=3)
    x = np.random.default_rng(0).uniform(size=a.n_cols)
    ok = bool(np.allclose(spmv(a, x), a.to_scipy() @ x, rtol=1e-9))
    failures += not ok
    rows.append(
        {"check": "SpMV vs SciPy", "result": "allclose(1e-9)",
         "status": "ok" if ok else "FAIL"}
    )

    # 4. Power anchors.
    for cfg, target in ((CONF0, 83.3), (CONF1, 107.4)):
        got = cfg.full_chip_power()
        ok = abs(got - target) < 0.5
        failures += not ok
        rows.append(
            {"check": f"power anchor {cfg.name}", "result": f"{got:.1f} W",
             "status": "ok" if ok else "FAIL"}
        )

    print(banner("Model self-validation"), file=out)
    print(format_table(rows, ["check", "result", "status"]), file=out)
    print(f"\n{failures} failure(s)" if failures else "\nall checks passed", file=out)
    return failures


def _render_exact_validation(args: argparse.Namespace, out) -> int:
    """``repro run --validate-exact``: analytic model vs exact replay.

    For every selected suite matrix, the analytic stream model's memory
    misses (:func:`repro.core.trace.access_summary`) are compared with
    bitwise-exact trace replay on the vectorized engine at the same
    scale and iteration count.  Both are expressed as miss ratios over
    the kernel's ``(3n + 3nnz) * iterations`` accesses; the table shows
    the per-matrix delta in percentage points.  This is the full-suite
    version of the spot checks in ``repro run validate``, made feasible
    by the set-parallel engine (scalar replay at this scale would take
    hours; see docs/PERFORMANCE.md).
    """
    from .core.trace import access_summary, characterize_partition
    from .scc.tracegen import replay_trace
    from .sparse import partition_rows_balanced
    from .sparse.suite import iter_suite

    rows = []
    deltas = []
    for e, a in iter_suite(scale=args.scale, ids=_parse_ids(args.ids)):
        [trace] = characterize_partition(a, partition_rows_balanced(a, 1))
        model_misses = access_summary(trace, iterations=args.iterations).l2_misses
        exact = replay_trace(
            a, iterations=args.iterations, engine="vectorized"
        )
        accesses = (3 * a.n_rows + 3 * a.nnz) * args.iterations
        model_pct = 100.0 * model_misses / accesses
        exact_pct = 100.0 * exact.mem_misses / accesses
        delta = model_pct - exact_pct
        deltas.append(abs(delta))
        rows.append(
            {
                "id": e.mid,
                "name": e.name,
                "accesses": accesses,
                "model miss %": model_pct,
                "exact miss %": exact_pct,
                "delta pp": delta,
            }
        )
    if not rows:
        raise SystemExit("no matrices selected; check --ids")
    print(banner("Exact-replay validation: analytic model vs trace-exact misses"), file=out)
    print(
        format_table(
            rows,
            ["id", "name", "accesses", "model miss %", "exact miss %", "delta pp"],
            floatfmt=".3f",
        ),
        file=out,
    )
    print(
        f"\nmean |delta| = {sum(deltas) / len(deltas):.3f} pp "
        f"over {len(rows)} matrices "
        f"(scale {args.scale}, {args.iterations} iterations)",
        file=out,
    )
    return 0


def _repair(path_str: str, fmt: str, out) -> int:
    """``repro run --repair``: quarantine a campaign file's corrupt lines."""
    from pathlib import Path

    from .core.campaign import Campaign

    path = Path(path_str)
    if not path.exists():
        raise SystemExit(f"repro run: no such campaign file: {path}")
    if path.suffix != ".jsonl":
        raise SystemExit(f"repro run: --repair expects a .jsonl file, got {path}")
    campaign = Campaign(path.stem, path.parent)
    kept, quarantined = campaign.repair()
    if fmt == "json":
        print(
            json.dumps({"file": str(path), "kept": kept, "quarantined": quarantined}),
            file=out,
        )
    else:
        print(
            f"{path}: kept {kept} record(s), quarantined {quarantined} "
            f"corrupt line(s)"
            + (
                f" to {path.with_name(path.stem + '.quarantine.jsonl')}"
                if quarantined
                else ""
            ),
            file=out,
        )
    return 0


def _run_artifacts(args: argparse.Namespace, out=None) -> int:
    """Handler of ``repro run``: render the requested artifact(s)."""
    if args.repair:
        with open_output(args, out) as stream:
            return _repair(args.repair, resolve_format(args), stream)
    if args.json:
        raise SystemExit("repro run: --json applies only to --repair")
    if not 0 < args.scale <= 1.0:
        raise SystemExit(f"--scale must be in (0, 1], got {args.scale}")
    if args.iterations < 1:
        raise SystemExit(f"--iterations must be >= 1, got {args.iterations}")
    if args.workers < 1:
        raise SystemExit(f"--workers must be >= 1, got {args.workers}")
    machine = get_machine(getattr(args, "machine", DEFAULT_MACHINE))
    if args.exact and args.mode not in (None, "sim"):
        raise SystemExit(
            f"--exact means --mode sim; drop one of them (got --mode {args.mode})"
        )
    if args.mode is not None and not machine.supports_mode(args.mode):
        raise SystemExit(
            f"machine {machine.machine_id!r} supports modes "
            f"{', '.join(machine.supported_modes)}, got --mode {args.mode}"
        )
    if args.exact and not machine.supports_mode("sim"):
        raise SystemExit(
            f"--exact needs the event-driven runtime, which machine "
            f"{machine.machine_id!r} does not carry (supported modes: "
            f"{', '.join(machine.supported_modes)}); drop --exact or use "
            f"--machine {DEFAULT_MACHINE}"
        )
    if args.validate_exact and machine.machine_id != DEFAULT_MACHINE:
        raise SystemExit(
            f"--validate-exact replays SCC cache traces and is only "
            f"meaningful on --machine {DEFAULT_MACHINE}, "
            f"got {machine.machine_id!r}"
        )
    with open_output(args, out) as stream:
        if args.validate_exact:
            return _render_exact_validation(args, stream)
        if args.artifact is None:
            raise SystemExit(
                "repro run: an artifact (or --validate-exact or --repair) is required"
            )
        if args.artifact == "validate":
            return _render_validation(stream)
        exps = suite_experiments(
            scale=args.scale, ids=_parse_ids(args.ids), machine=machine.machine_id
        )
        if not exps:
            raise SystemExit("no matrices selected; check --ids")
        mode = args.mode or ("sim" if args.exact else DEFAULT_MODE)
        policy = policy_from_args(args)
        artifacts = ARTIFACTS if args.artifact == "all" else (args.artifact,)
        for artifact in artifacts:
            _render(
                artifact, exps, args.iterations, stream,
                mode=mode, workers=args.workers, policy=policy,
            )
    return 0


def _dispatch_lint(args, out=None) -> int:
    from .analysis.cli import run_lint

    return run_lint(args, out=out)


def _dispatch_check(args, out=None) -> int:
    from .analysis.cli import run_check

    return run_check(args, out=out)


def _dispatch_chaos(args, out=None) -> int:
    from .chaos import run_chaos

    return run_chaos(args, out=out)


def _dispatch_trace(args, out=None) -> int:
    from .obs.cli import run_trace

    return run_trace(args, out=out)


def _dispatch_bench(args, out=None) -> int:
    from .bench import run_bench

    return run_bench(args, out=out)


def _dispatch_serve(args, out=None) -> int:
    from .serve.cli import run_serve

    return run_serve(args, out=out)


def _dispatch_submit(args, out=None) -> int:
    from .serve.cli import run_submit

    return run_submit(args, out=out)


def _dispatch_status(args, out=None) -> int:
    from .serve.cli import run_status

    return run_status(args, out=out)


def _dispatch_result(args, out=None) -> int:
    from .serve.cli import run_result

    return run_result(args, out=out)


def _dispatch_predict(args, out=None) -> int:
    from .predict.cli import run_predict

    return run_predict(args, out=out)


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    if argv and argv[0] in ARTIFACTS + ("all", "validate"):
        print(
            f"repro: {argv[0]!r} is an artifact, not a command — "
            f"use 'repro run {argv[0]}'",
            file=sys.stderr,
        )
        return 2
    if argv and not argv[0].startswith("-") and argv[0] not in COMMANDS:
        print(
            f"repro: unknown command {argv[0]!r} — expected one of: "
            f"{', '.join(COMMANDS)} (paper artifacts run as "
            f"'repro run <artifact>')",
            file=sys.stderr,
        )
        return 2
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", None) is None:
        parser.print_usage(sys.stderr)
        return 2
    return args.handler(args, out)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
