"""``repro trace`` subcommand implementation.

``trace`` runs one traced SpMV experiment on the model and exports the
event stream — as Chrome/Perfetto ``trace_event`` JSON (load it at
``chrome://tracing`` or https://ui.perfetto.dev), as a terminal
timeline, or as a flat metric summary.  Traces are deterministic: two
runs with the same arguments produce byte-identical exports.
"""

from __future__ import annotations

import argparse
import json
from typing import Optional, TextIO

from ..cliutil import add_output_flag, add_point_flags, open_output, resolve_point, str_list
from .export import chrome_trace_json, metrics_summary, render_timeline
from .tracer import Tracer

__all__ = ["trace_main", "configure_trace_parser", "run_trace"]

EXPORTS = ("chrome", "timeline", "summary")


def configure_trace_parser(p: argparse.ArgumentParser) -> None:
    """Add the ``repro trace`` arguments to an existing parser."""
    p.add_argument(
        "--export",
        choices=EXPORTS,
        default="chrome",
        help="output form: Chrome trace_event JSON, terminal timeline, "
        "or flat metric summary (default: chrome)",
    )
    add_point_flags(p)
    p.add_argument(
        "--categories",
        type=str,
        default="",
        help="comma-separated event categories to record (default: all); "
        "e.g. rcce,sim",
    )
    add_output_flag(p)


def build_trace_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro trace",
        description="Run one traced SpMV experiment and export the trace.",
    )
    configure_trace_parser(p)
    return p


def run_trace(args: argparse.Namespace, out: Optional[TextIO] = None) -> int:
    """Execute ``repro trace`` from a parsed namespace."""
    from ..core.experiment import SpMVExperiment
    from ..sparse.suite import build_matrix

    name = resolve_point(args, "repro trace")
    tracer = Tracer(categories=str_list(args.categories) or None)
    # Trace events only exist on the event-driven path, so trace runs ``sim``.
    result = SpMVExperiment(
        build_matrix(args.matrix_id, scale=args.scale), name=name
    ).run(
        n_cores=args.cores,
        mapping=args.mapping,
        kernel=args.kernel,
        iterations=args.iterations,
        tracer=tracer,
        mode="sim",
    )
    with open_output(args, out) as stream:
        if args.export == "chrome":
            stream.write(chrome_trace_json(tracer) + "\n")
        elif args.export == "timeline":
            stream.write(render_timeline(tracer) + "\n")
        else:
            summary = {
                "run": result.to_record(),
                "events": len(tracer.events),
                "metrics": metrics_summary(tracer),
            }
            stream.write(
                json.dumps(summary, indent=2, sort_keys=True, default=str) + "\n"
            )
    return 0


def trace_main(argv=None, out: Optional[TextIO] = None) -> int:
    """Entry point for ``repro trace``; returns a process exit code."""
    return run_trace(build_trace_parser().parse_args(argv), out=out)
