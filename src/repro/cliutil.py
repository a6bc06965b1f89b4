"""Shared plumbing of the ``repro`` CLI subcommands.

Every subcommand takes the same two output knobs: ``--output FILE``
(write the rendering to a file instead of stdout) and, where the
subcommand has a structured rendering, ``--json`` (shorthand for
``--format json``).  The helpers here keep those flags and their
resolution identical across :mod:`repro.cli`, :mod:`repro.analysis.cli`,
:mod:`repro.faults.cli` and :mod:`repro.obs.cli`.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from typing import Iterator, Optional, TextIO

__all__ = [
    "add_output_flag",
    "add_json_flag",
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


def add_supervise_flags(p: argparse.ArgumentParser) -> None:
    """The uniform supervised-execution flags (``docs/FAULTS.md``).

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
