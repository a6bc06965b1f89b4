"""``repro predict`` — train, evaluate and inspect performance predictors.

Actions::

    repro predict train --machines scc-48,xeonphi-61 --ids 2,7,14
    repro predict eval --ids 2,7,14 --cores 1,2,4,8,16,32
    repro predict info

``train`` sweeps the labelled grid in ``mode="model"`` (or
``exact-trace``) per machine, fits the regressor and seals the
artifact into the ``predict-models`` store namespace.  ``eval`` runs
the differential harness (fresh model sweep vs fresh predict sweep)
and prints per-machine speedup/error.  ``info`` shows what artifacts
exist and their training provenance.
"""

from __future__ import annotations

import argparse
import json
from typing import List, Sequence

from ..cliutil import add_output_flag, int_list, open_output, str_list
from ..machine.registry import get_machine, list_machines

__all__ = ["configure_predict_parser", "run_predict"]

_DEFAULT_MACHINES = "scc-48,xeonphi-61,ft2000plus-64"


def configure_predict_parser(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "action",
        choices=("train", "eval", "info"),
        help="train and seal per-machine predictors; evaluate predict-vs-"
        "model speed and error; or inspect stored artifacts",
    )
    p.add_argument(
        "--machines",
        default=_DEFAULT_MACHINES,
        help=f"comma-separated machine ids (default {_DEFAULT_MACHINES}; "
        f"known: {', '.join(list_machines())})",
    )
    p.add_argument(
        "--ids", default="2,7,14,24",
        help="comma-separated Table I matrix ids for the training/eval grid",
    )
    p.add_argument(
        "--cores", default="1,2,4,8,16,32",
        help="comma-separated core counts of the grid (counts above a "
        "machine's size are skipped on that machine)",
    )
    p.add_argument(
        "--configs", default="conf0",
        help="comma-separated machine config presets (train only)",
    )
    p.add_argument(
        "--mappings", default="distance_reduction",
        help="comma-separated mapping policies (train only)",
    )
    p.add_argument(
        "--kernels", default="csr",
        help="comma-separated kernels (train only)",
    )
    p.add_argument("--scale", type=float, default=0.05, help="matrix scale (default 0.05)")
    p.add_argument("--iterations", type=int, default=4, help="SpMV iterations per point")
    p.add_argument(
        "--label-mode", choices=("model", "exact-trace"), default="model",
        help="which tier labels the training grid (default model)",
    )
    p.add_argument("--rounds", type=int, default=300, help="boosting rounds (default 300)")
    p.add_argument("--tag", default="default", help="artifact tag (default 'default')")
    p.add_argument(
        "--no-store", action="store_true",
        help="train only in-process: skip the labelled-row cache and do "
        "not write the model artifact",
    )
    p.add_argument(
        "--json", action="store_true", help="emit the raw report as JSON"
    )
    add_output_flag(p)


def _machines_of(args) -> List:
    machines = []
    for mid in str_list(args.machines):
        try:
            machines.append(get_machine(mid))
        except KeyError as exc:
            raise SystemExit(
                f"unknown machine {mid!r}; known: {', '.join(list_machines())}"
            ) from exc
    if not machines:
        raise SystemExit("--machines named no machines")
    return machines


def _run_train(args, out) -> int:
    from .train import train_predictor
    from .artifact import model_store_key

    ids = int_list(args.ids, "--ids")
    cores = int_list(args.cores, "--cores")
    report = {}
    for machine in _machines_of(args):
        model, stats = train_predictor(
            machine,
            ids,
            core_counts=cores,
            configs=str_list(args.configs),
            mappings=str_list(args.mappings),
            kernels=str_list(args.kernels),
            scale=args.scale,
            iterations=args.iterations,
            mode=args.label_mode,
            n_rounds=args.rounds,
            tag=args.tag,
            save=not args.no_store,
            use_store=not args.no_store,
        )
        entry = {"rows": model.train_rows, **stats}
        if not args.no_store:
            entry["key"] = model_store_key(machine.cache_key(), args.tag)
        report[machine.machine_id] = entry
        if not args.json:
            print(
                f"{machine.machine_id}: {model.train_rows} rows, "
                f"median err {stats['median_rel_err_pct']:.2f}%, "
                f"p90 {stats['p90_rel_err_pct']:.2f}%"
                + ("" if args.no_store else f", sealed as {entry['key'][:16]}…"),
                file=out,
            )
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True), file=out)
    return 0


def _run_eval(args, out) -> int:
    from .harness import differential_report

    report = differential_report(
        machine_ids=[m.machine_id for m in _machines_of(args)],
        ids=int_list(args.ids, "--ids"),
        core_counts=int_list(args.cores, "--cores"),
        scale=args.scale,
        iterations=args.iterations,
        n_rounds=args.rounds,
    )
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True), file=out)
        return 0
    for mid, m in report["machines"].items():
        line = (
            f"{mid}: {m['n_points']} points, speedup {m['speedup']:.0f}x, "
            f"median err {m['median_rel_err_pct']:.2f}% "
            f"(p90 {m['p90_rel_err_pct']:.2f}%, max {m['max_rel_err_pct']:.2f}%)"
        )
        if "exact" in m:
            line += f"; vs exact-trace median {m['exact']['median_rel_err_pct']:.2f}%"
        print(line, file=out)
    agg = report["aggregate"]
    print(
        f"aggregate: {agg['speedup']:.0f}x "
        f"({agg['t_model_s']:.2f}s model vs {agg['t_predict_s']:.3f}s predict), "
        f"worst median err {agg['worst_median_rel_err_pct']:.2f}%",
        file=out,
    )
    return 0


def _run_info(args, out) -> int:
    from .artifact import load_meta, model_store_key

    report = {}
    for machine in _machines_of(args):
        meta = load_meta(machine, tag=args.tag)
        key = model_store_key(machine.cache_key(), args.tag)
        if meta is None:
            report[machine.machine_id] = None
            if not args.json:
                print(f"{machine.machine_id}: no artifact (key {key[:16]}…)", file=out)
            continue
        report[machine.machine_id] = meta
        if not args.json:
            stats = meta.get("train_stats", {})
            grid = meta.get("train_grid", {})
            print(
                f"{machine.machine_id}: schema v{meta['schema_version']}, "
                f"{meta.get('train_rows', '?')} rows "
                f"(ids {grid.get('ids', '?')}, cores {grid.get('core_counts', '?')}), "
                f"median err {stats.get('median_rel_err_pct', float('nan')):.2f}%, "
                f"key {key[:16]}…",
                file=out,
            )
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True), file=out)
    return 0


def run_predict(args: argparse.Namespace, out=None) -> int:
    """Handler of ``repro predict``."""
    if args.scale <= 0 or args.scale > 1.0:
        raise SystemExit(f"--scale must be in (0, 1], got {args.scale}")
    if args.iterations < 1:
        raise SystemExit(f"--iterations must be >= 1, got {args.iterations}")
    with open_output(args, out) as stream:
        if args.action == "train":
            return _run_train(args, stream)
        if args.action == "eval":
            return _run_eval(args, stream)
        return _run_info(args, stream)
