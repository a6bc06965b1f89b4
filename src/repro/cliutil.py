"""Shared plumbing of the ``repro`` CLI subcommands.

Every subcommand takes ``--output FILE`` (write the rendering to a
file instead of stdout); the subcommands with a text and a JSON
rendering (``lint``, ``check``, ``chaos``, ``submit``, ``status``,
``result``, ``predict``, and ``run --repair``) also take ``--json``
(shorthand for ``--format json``).  The helpers here keep those flags,
the single-point flags ``trace`` and ``bench`` share, and the
comma-list parsing of every ``--ids``-style flag identical across the
subcommands.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from typing import Iterator, List, Optional, TextIO

__all__ = [
    "add_output_flag",
    "add_json_flag",
    "add_point_flags",
    "resolve_point",
    "str_list",
    "int_list",
    "add_supervise_flags",
    "policy_from_args",
    "resolve_format",
    "open_output",
]


def add_output_flag(p: argparse.ArgumentParser) -> None:
    """The uniform ``--output FILE`` flag."""
    p.add_argument(
        "--output",
        type=str,
        default="",
        metavar="FILE",
        help="write the output to this file instead of stdout",
    )


def add_json_flag(p: argparse.ArgumentParser) -> None:
    """The uniform ``--json`` flag (shorthand for ``--format json``)."""
    p.add_argument(
        "--json",
        action="store_true",
        help="emit JSON (shorthand for --format json)",
    )


def add_point_flags(p: argparse.ArgumentParser) -> None:
    """The single-experiment-point flags of ``repro trace``/``repro bench``."""
    p.add_argument(
        "--matrix-id", type=int, default=24, help="Table I matrix id (default 24)"
    )
    p.add_argument(
        "--cores", type=int, default=4, help="units of execution (default 4)"
    )
    p.add_argument(
        "--scale",
        type=float,
        default=0.05,
        help="matrix-size scale; 1.0 = published UFL sizes (default 0.05)",
    )
    p.add_argument(
        "--iterations", type=int, default=2, help="SpMV repetitions (default 2)"
    )
    p.add_argument(
        "--mapping",
        type=str,
        default="distance_reduction",
        help="UE-to-core mapping policy (default distance_reduction)",
    )
    p.add_argument(
        "--kernel",
        choices=("csr", "no_x_miss"),
        default="csr",
        help="SpMV kernel variant (default csr)",
    )


def resolve_point(args: argparse.Namespace, prog: str) -> str:
    """Validate the :func:`add_point_flags` values; return the matrix name."""
    from .sparse.suite import entry_by_id

    if args.cores < 1:
        raise SystemExit(f"--cores must be >= 1, got {args.cores}")
    if not 0 < args.scale <= 1.0:
        raise SystemExit(f"--scale must be in (0, 1], got {args.scale}")
    if args.iterations < 1:
        raise SystemExit(f"--iterations must be >= 1, got {args.iterations}")
    try:
        return entry_by_id(args.matrix_id).name
    except KeyError as exc:
        raise SystemExit(f"{prog}: {exc}") from exc


def str_list(raw: str) -> List[str]:
    """The non-empty, stripped items of a comma-separated flag value."""
    return [tok.strip() for tok in raw.split(",") if tok.strip()]


def int_list(raw: str, flag: str) -> List[int]:
    """:func:`str_list` as integers; a non-integer item exits naming ``flag``.

    An empty value gives ``[]``: what an empty selection means is the
    caller's rule.
    """
    try:
        return [int(tok) for tok in str_list(raw)]
    except ValueError as exc:
        raise SystemExit(f"{flag} must be comma-separated integers: {exc}") from exc


def add_supervise_flags(p: argparse.ArgumentParser) -> None:
    """The uniform supervised-execution flags (``docs/ROBUSTNESS.md``).

    Giving any of them builds a custom policy (:func:`policy_from_args`);
    leaving all unset runs ``--workers 1`` in-process and ``--workers N``
    under the default policy.
    """
    from .core.supervise import ON_FAILURE_LADDER

    g = p.add_argument_group("supervised execution")
    g.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per task attempt; a hung worker is "
        "SIGKILLed at the deadline and the task retried with backoff "
        "(default: no timeout)",
    )
    g.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        help="in-pool retries per task before the degradation ladder / "
        "quarantine (default 2)",
    )
    g.add_argument(
        "--on-failure",
        choices=ON_FAILURE_LADDER,
        default=None,
        help="after the last retry: 'quarantine' records the poison point "
        "and continues, 'serial' reruns it in the parent process first, "
        "'model' additionally reruns on the analytic model, 'raise' "
        "aborts the sweep (default quarantine)",
    )


def policy_from_args(args: argparse.Namespace):
    """A ``SupervisePolicy`` when any supervise flag was given, else None."""
    from .core.supervise import SupervisePolicy

    kwargs = {}
    if getattr(args, "task_timeout", None) is not None:
        kwargs["task_timeout"] = args.task_timeout
    if getattr(args, "max_retries", None) is not None:
        kwargs["max_retries"] = args.max_retries
    if getattr(args, "on_failure", None) is not None:
        kwargs["on_failure"] = args.on_failure
    if not kwargs:
        return None
    return SupervisePolicy(**kwargs)


def resolve_format(args: argparse.Namespace) -> str:
    """Effective output format: ``--json`` wins over ``--format``."""
    if getattr(args, "json", False):
        return "json"
    return getattr(args, "format", "text")


@contextmanager
def open_output(args: argparse.Namespace, out: Optional[TextIO]) -> Iterator[TextIO]:
    """Yield the stream to print to.

    An explicit ``out`` (tests pass a StringIO) always wins; otherwise
    ``--output`` opens a file for the duration, else stdout.
    """
    if out is not None:
        yield out
    elif getattr(args, "output", ""):
        fh = open(args.output, "w", encoding="utf-8")
        try:
            yield fh
        finally:
            fh.close()
    else:
        yield sys.stdout
