"""CLI front end of the campaign service.

Four subcommands of ``python -m repro`` live here:

* ``repro serve`` — run a :class:`~repro.serve.server.CampaignServer`
  in the foreground until interrupted;
* ``repro submit`` — POST a campaign spec, optionally wait for it;
* ``repro status`` — one job's state, or the whole job table;
* ``repro result`` — a finished job's records.

The default port (8750) and the ``REPRO_SERVE_URL`` environment
variable keep the three client commands pointed at the same server
without repeating ``--server`` everywhere.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import threading

from ..cliutil import (
    add_json_flag,
    add_output_flag,
    add_supervise_flags,
    int_list,
    open_output,
    policy_from_args,
    str_list,
)

__all__ = [
    "DEFAULT_PORT",
    "SERVE_URL_ENV",
    "configure_serve_parser",
    "configure_submit_parser",
    "configure_status_parser",
    "configure_result_parser",
    "run_serve",
    "run_submit",
    "run_status",
    "run_result",
]

DEFAULT_PORT = 8750
SERVE_URL_ENV = "REPRO_SERVE_URL"


def _default_url() -> str:
    return os.environ.get(SERVE_URL_ENV, f"http://127.0.0.1:{DEFAULT_PORT}")


def _add_server_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--server",
        type=str,
        default=_default_url(),
        metavar="URL",
        help=f"campaign server address (default ${SERVE_URL_ENV} or "
        f"http://127.0.0.1:{DEFAULT_PORT})",
    )


# -- repro serve -----------------------------------------------------------


def configure_serve_parser(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--data-dir",
        type=str,
        default="serve-data",
        metavar="DIR",
        help="journal directory; a restarted server resumes every "
        "journaled job from here (default %(default)s)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=2,
        help="supervised worker processes sharding each batch (default 2)",
    )
    p.add_argument("--host", type=str, default="127.0.0.1")
    p.add_argument(
        "--port",
        type=int,
        default=DEFAULT_PORT,
        help=f"listen port; 0 picks an ephemeral one (default {DEFAULT_PORT})",
    )
    add_supervise_flags(p)
    add_output_flag(p)


def run_serve(args: argparse.Namespace, out=None) -> int:
    """Run the server until SIGINT/SIGTERM (Ctrl-C in the foreground)."""
    from .server import CampaignServer

    if args.workers < 1:
        raise SystemExit(f"--workers must be >= 1, got {args.workers}")
    server = CampaignServer(
        data_dir=args.data_dir,
        workers=args.workers,
        policy=policy_from_args(args) or None,
        host=args.host,
        port=args.port,
    )
    server.start()
    stop = threading.Event()

    def _on_signal(signum, frame):  # noqa: ARG001
        stop.set()

    # Signal handlers only bind on the main thread (tests drive the
    # server object directly instead of through this loop).
    try:
        signal.signal(signal.SIGINT, _on_signal)
        signal.signal(signal.SIGTERM, _on_signal)
    except ValueError:
        pass
    with open_output(args, out) as stream:
        print(
            f"repro serve: listening on {server.url} "
            f"(journal {server.journal_path}, {args.workers} workers)",
            file=stream,
        )
        if stream is not None:
            stream.flush()
        try:
            stop.wait()
        except KeyboardInterrupt:
            pass
        finally:
            server.stop()
        print("repro serve: stopped", file=stream)
    return 0


# -- repro submit ----------------------------------------------------------


def configure_submit_parser(p: argparse.ArgumentParser) -> None:
    from ..core.experiment import DEFAULT_ITERATIONS, KERNELS, MODES
    from ..core.mapping import MAPPINGS
    from ..machine.base import DEFAULT_MACHINE
    from ..machine.registry import list_machines

    _add_server_flag(p)
    p.add_argument(
        "--ids",
        type=str,
        required=True,
        help="comma-separated Table I matrix ids of the campaign grid",
    )
    p.add_argument(
        "--cores",
        type=str,
        required=True,
        help="comma-separated core counts of the grid",
    )
    p.add_argument(
        "--configs", type=str, default="conf0",
        help="comma-separated chip config presets (default conf0)",
    )
    p.add_argument(
        "--mappings", type=str, default="distance_reduction",
        help=f"comma-separated mappings from {sorted(MAPPINGS)} "
        "(default distance_reduction)",
    )
    p.add_argument(
        "--kernels", type=str, default="csr",
        help=f"comma-separated kernels from {KERNELS} (default csr)",
    )
    p.add_argument(
        "--machines", type=str, default="",
        help="comma-separated machine ids to cross the grid over "
        "(default: just --machine)",
    )
    p.add_argument(
        "--machine",
        choices=list_machines(),
        default=DEFAULT_MACHINE,
        help="machine of points that don't pin one (default %(default)s)",
    )
    p.add_argument("--scale", type=float, default=0.25)
    p.add_argument("--iterations", type=int, default=DEFAULT_ITERATIONS)
    p.add_argument(
        "--mode", choices=MODES, default="model",
        help="timing mode (default model; every zoo machine runs it)",
    )
    p.add_argument(
        "--wait", action="store_true",
        help="poll until the job finishes and print its result summary",
    )
    p.add_argument(
        "--timeout", type=float, default=600.0,
        help="--wait limit in seconds (default 600)",
    )
    add_json_flag(p)
    add_output_flag(p)


def _spec_from_args(args: argparse.Namespace):
    from .protocol import CampaignSpec, SpecError

    machines = str_list(args.machines) or [""]
    try:
        return CampaignSpec(
            ids=tuple(int_list(args.ids, "--ids")),
            core_counts=tuple(int_list(args.cores, "--cores")),
            configs=tuple(str_list(args.configs) or ["conf0"]),
            mappings=tuple(str_list(args.mappings) or ["distance_reduction"]),
            kernels=tuple(str_list(args.kernels) or ["csr"]),
            machines=tuple(machines),
            machine=args.machine,
            scale=args.scale,
            iterations=args.iterations,
            mode=args.mode,
        )
    except SpecError as exc:
        raise SystemExit(f"repro submit: {exc}") from exc


def run_submit(args: argparse.Namespace, out=None) -> int:
    from .client import ServeClient, ServeError

    spec = _spec_from_args(args)
    try:
        with ServeClient(args.server) as client:
            summary = client.submit(spec)
            if args.wait:
                summary = client.wait(str(summary["job_id"]), timeout=args.timeout)
    except ServeError as exc:
        raise SystemExit(f"repro submit: {exc}") from exc
    except (ConnectionError, OSError) as exc:
        raise SystemExit(
            f"repro submit: cannot reach {args.server} ({exc}); "
            f"is `repro serve` running?"
        ) from exc
    with open_output(args, out) as stream:
        if getattr(args, "json", False):
            print(json.dumps(summary, indent=2, sort_keys=True), file=stream)
        else:
            print(_summary_line(summary), file=stream)
    return 0


def _summary_line(summary: dict) -> str:
    parts = [
        f"job {summary.get('job_id')}",
        f"state={summary.get('state')}",
        f"points={summary.get('points')}",
        f"dedup_hits={summary.get('dedup_hits')}",
        f"simulated={summary.get('simulated')}",
    ]
    if summary.get("quarantined"):
        parts.append(f"quarantined={summary['quarantined']}")
    return "  ".join(str(p) for p in parts)


# -- repro status ----------------------------------------------------------


def configure_status_parser(p: argparse.ArgumentParser) -> None:
    _add_server_flag(p)
    p.add_argument(
        "job_id", nargs="?", default="",
        help="job to inspect (omit for the whole job table)",
    )
    add_json_flag(p)
    add_output_flag(p)


def run_status(args: argparse.Namespace, out=None) -> int:
    from .client import ServeClient, ServeError

    try:
        with ServeClient(args.server) as client:
            if args.job_id:
                payload: object = client.status(args.job_id)
                rows = [payload]
            else:
                rows = client.jobs()
                payload = {"jobs": rows}
    except ServeError as exc:
        raise SystemExit(f"repro status: {exc}") from exc
    except (ConnectionError, OSError) as exc:
        raise SystemExit(
            f"repro status: cannot reach {args.server} ({exc})"
        ) from exc
    with open_output(args, out) as stream:
        if getattr(args, "json", False):
            print(json.dumps(payload, indent=2, sort_keys=True), file=stream)
        elif not rows:
            print("no jobs", file=stream)
        else:
            for row in rows:
                print(_summary_line(row), file=stream)
    return 0


# -- repro result ----------------------------------------------------------


def configure_result_parser(p: argparse.ArgumentParser) -> None:
    _add_server_flag(p)
    p.add_argument("job_id", help="finished job whose records to fetch")
    add_json_flag(p)
    add_output_flag(p)


def run_result(args: argparse.Namespace, out=None) -> int:
    from ..core.report import format_table
    from .client import ServeClient, ServeError

    try:
        with ServeClient(args.server) as client:
            result = client.result(args.job_id)
    except ServeError as exc:
        raise SystemExit(f"repro result: {exc}") from exc
    except (ConnectionError, OSError) as exc:
        raise SystemExit(
            f"repro result: cannot reach {args.server} ({exc})"
        ) from exc
    with open_output(args, out) as stream:
        if getattr(args, "json", False):
            print(json.dumps(result, indent=2, sort_keys=True), file=stream)
            return 0
        records = result.get("records") or []
        ok_rows = [r for r in records if r.get("status", "ok") == "ok"]
        if ok_rows:
            cols = ["matrix", "n_cores", "config", "mapping", "kernel", "mflops"]
            if any("machine" in r for r in ok_rows):
                cols.insert(1, "machine")
                for r in ok_rows:
                    r.setdefault("machine", "")
            print(format_table(ok_rows, cols), file=stream)
        bad = len(records) - len(ok_rows)
        print(_summary_line(result), file=stream)
        if bad:
            print(f"{bad} record(s) not ok (see --json for details)", file=stream)
    return 0
