"""``repro faults`` subcommand: fault-injection runs and campaign repair.

Runs the fault-tolerant SpMV driver under a named or file-based
:class:`~repro.faults.plan.FaultPlan` over a selection of suite
matrices, printing per-run recovery counters and verifying the result
vector against the fault-free computation.  Exit status is non-zero
when any run fails verification — CI keys off this for the fault
matrix.  Also hosts the campaign repair path (``--repair``), which
quarantines corrupt records from a campaign JSONL file.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Optional, Sequence, TextIO

from ..cliutil import (
    add_json_flag,
    add_output_flag,
    add_supervise_flags,
    int_list,
    open_output,
    policy_from_args,
    resolve_format,
)
from .plan import EXAMPLE_PLANS, load_plan

__all__ = [
    "faults_main",
    "build_faults_parser",
    "configure_faults_parser",
    "run_faults",
]


def configure_faults_parser(p: argparse.ArgumentParser) -> None:
    """Add the ``repro faults`` arguments to an existing parser."""
    p.add_argument(
        "--plan",
        type=str,
        default="lossy",
        help="named fault plan or a JSON plan file (default: lossy)",
    )
    p.add_argument(
        "--list-plans", action="store_true", help="print the named plans and exit"
    )
    p.add_argument(
        "--seed", type=int, default=None, help="override the plan's seed"
    )
    p.add_argument(
        "--ids",
        type=str,
        default="2,7",
        help="comma-separated Table I matrix ids (default: 2,7)",
    )
    p.add_argument(
        "--cores", type=int, default=8, help="units of execution (default 8)"
    )
    p.add_argument(
        "--scale",
        type=float,
        default=0.1,
        help="matrix-size scale; 1.0 = published UFL sizes (default 0.1)",
    )
    p.add_argument(
        "--iterations", type=int, default=4, help="SpMV repetitions (default 4)"
    )
    p.add_argument(
        "--budget",
        type=float,
        default=10.0,
        help="simulated-time budget per run in seconds (default 10.0)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes to shard the matrices over (default 1 = serial)",
    )
    p.add_argument(
        "--repair",
        type=str,
        default="",
        metavar="JSONL",
        help="repair a campaign file (quarantine corrupt lines) and exit",
    )
    p.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    add_supervise_flags(p)
    add_json_flag(p)
    add_output_flag(p)


def _fault_run_task(opts: tuple, mid: int) -> dict:
    """One fault-tolerant run of matrix ``mid`` (one sweep task)."""
    plan, cores, scale, iterations, budget = opts
    from ..core.experiment import SpMVExperiment
    from ..sparse.suite import build_matrix, entry_by_id

    entry = entry_by_id(mid)
    exp = SpMVExperiment(build_matrix(mid, scale=scale), name=entry.name)
    result = exp.run_fault_tolerant(
        n_cores=cores, plan=plan, iterations=iterations, time_budget=budget
    )
    c = result.counters
    return {
        "matrix": result.matrix_name,
        "cores": result.n_cores,
        "plan": f"{result.plan_name}/{result.plan_seed}",
        "makespan_s": result.makespan,
        "mflops": result.mflops,
        "drops": c.get("drop", 0),
        "corrupt": c.get("corrupt", 0),
        "retries": c.get("retries", 0),
        "deaths": len(result.failed_ues),
        "repartitions": c.get("repartitions", 0),
        "verified": result.verified,
    }


def build_faults_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro faults",
        description="Run fault-injection experiments with the fault-tolerant "
        "SpMV driver, or repair a damaged campaign file.",
    )
    configure_faults_parser(p)
    return p


def _repair(path_str: str, fmt: str, out: TextIO) -> int:
    from ..core.campaign import Campaign

    path = Path(path_str)
    if not path.exists():
        raise SystemExit(f"repro faults: no such campaign file: {path}")
    if path.suffix != ".jsonl":
        raise SystemExit(f"repro faults: --repair expects a .jsonl file, got {path}")
    campaign = Campaign(path.stem, path.parent)
    kept, quarantined = campaign.repair()
    if fmt == "json":
        print(
            json.dumps(
                {"file": str(path), "kept": kept, "quarantined": quarantined}
            ),
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


def run_faults(args: argparse.Namespace, out: Optional[TextIO] = None) -> int:
    """Execute ``repro faults`` from a parsed namespace."""
    fmt = resolve_format(args)
    with open_output(args, out) as stream:
        if args.list_plans:
            for name, plan in EXAMPLE_PLANS.items():
                knobs = []
                if plan.drop_rate:
                    knobs.append(f"drop={plan.drop_rate}")
                if plan.duplicate_rate:
                    knobs.append(f"dup={plan.duplicate_rate}")
                if plan.corrupt_rate:
                    knobs.append(f"corrupt={plan.corrupt_rate}")
                if plan.n_random_failures or plan.core_failures:
                    knobs.append(
                        f"failures={plan.n_random_failures + len(plan.core_failures)}"
                    )
                if plan.n_random_stalls or plan.core_stalls:
                    knobs.append(
                        f"stalls={plan.n_random_stalls + len(plan.core_stalls)}"
                    )
                if plan.mc_stall_bursts:
                    knobs.append(f"mc_bursts={len(plan.mc_stall_bursts)}")
                if plan.link_degradations:
                    knobs.append(f"degraded_links={len(plan.link_degradations)}")
                print(f"{name:10s} {', '.join(knobs) or 'faultless'}", file=stream)
            return 0

        if args.repair:
            return _repair(args.repair, fmt, stream)

        # Heavy imports deferred so --list-plans / --repair stay snappy.
        from functools import partial

        from ..core.report import banner, format_table
        from ..core.supervise import supervised_parallel_map

        try:
            plan = load_plan(args.plan)
        except ValueError as exc:
            raise SystemExit(f"repro faults: {exc}") from exc
        if args.seed is not None:
            plan = plan.with_seed(args.seed)
        if args.cores < 1:
            raise SystemExit(f"--cores must be >= 1, got {args.cores}")
        if not 0 < args.scale <= 1.0:
            raise SystemExit(f"--scale must be in (0, 1], got {args.scale}")
        workers = getattr(args, "workers", 1)
        if workers < 1:
            raise SystemExit(f"--workers must be >= 1, got {workers}")
        ids = int_list(args.ids, "--ids")
        if not ids:
            raise SystemExit("no matrices selected; check --ids")

        opts = (plan, args.cores, args.scale, args.iterations, args.budget)
        task = partial(_fault_run_task, opts)
        policy = policy_from_args(args)
        # 'serial'/'model' degrade to an in-parent rerun (fault runs need
        # the event-driven runtime, so there is no model rung).
        fallbacks = (
            [("serial", task)]
            if policy is not None and policy.on_failure in ("serial", "model")
            else []
        )
        rows = supervised_parallel_map(
            task, ids, workers, policy,
            identity=lambda mid: f"faults:{mid}",
            fallbacks=fallbacks,
        )
        all_verified = all(row["verified"] for row in rows)
        for row in rows:
            row["verified"] = "yes" if row["verified"] else "NO"

        if fmt == "json":
            print(json.dumps(rows), file=stream)
        else:
            print(
                banner(
                    f"Fault-tolerant SpMV under plan {plan.name!r} (seed {plan.seed})"
                ),
                file=stream,
            )
            print(
                format_table(
                    rows,
                    [
                        "matrix",
                        "cores",
                        "plan",
                        "makespan_s",
                        "mflops",
                        "drops",
                        "corrupt",
                        "retries",
                        "deaths",
                        "repartitions",
                        "verified",
                    ],
                ),
                file=stream,
            )
            print(
                "\nall runs verified against the fault-free reference"
                if all_verified
                else "\nVERIFICATION FAILED for at least one run",
                file=stream,
            )
        return 0 if all_verified else 1


def faults_main(
    argv: Optional[Sequence[str]] = None, out: Optional[TextIO] = None
) -> int:
    """Entry point for ``repro faults``; returns a process exit code."""
    return run_faults(build_faults_parser().parse_args(argv), out=out)
