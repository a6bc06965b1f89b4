"""``repro lint`` / ``repro check`` implementations.

Kept separate from :mod:`repro.cli` (which owns the paper-artifact
commands) so the analysis layer stays importable without the figure
machinery.  Both commands exit non-zero when any ERROR-severity finding
is produced, which is what CI keys off.

The parser *definitions* (``configure_*_parser``) are separate from the
entry points so the unified ``repro`` parser can mount them as real
subparsers while the standalone ``lint_main``/``check_main`` entry
points keep working unchanged.
"""

from __future__ import annotations

import argparse
import json
from typing import List, Optional, Sequence, TextIO

from ..cliutil import add_json_flag, add_output_flag, open_output, resolve_format, str_list
from ..scc.topology import N_CORES
from .findings import Finding, Severity, findings_to_json, format_findings, has_errors
from .lint import lint_paths
from .rules import all_rules

__all__ = [
    "lint_main",
    "check_main",
    "configure_lint_parser",
    "configure_check_parser",
    "run_lint",
    "run_check",
]


def configure_lint_parser(p: argparse.ArgumentParser) -> None:
    """Add the ``repro lint`` arguments to an existing parser."""
    p.add_argument("paths", nargs="*", help="files or directories to lint")
    p.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    p.add_argument(
        "--select",
        type=str,
        default="",
        help="comma-separated rule ids to run (default: all)",
    )
    p.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue and exit"
    )
    add_json_flag(p)
    add_output_flag(p)


def build_lint_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro lint",
        description="Statically lint RCCE/simulator programs for SPMD protocol "
        "bugs and determinism hazards.",
    )
    configure_lint_parser(p)
    return p


def run_lint(args: argparse.Namespace, out: Optional[TextIO] = None) -> int:
    """Execute ``repro lint`` from a parsed namespace."""
    with open_output(args, out) as stream:
        if args.list_rules:
            for r in all_rules():
                print(
                    f"{r.id}  [{r.severity.value:7s}]  {r.name}: {r.summary}",
                    file=stream,
                )
            return 0
        if not args.paths:
            raise SystemExit(
                "repro lint: at least one path is required (or --list-rules)"
            )
        select = str_list(args.select) or None
        try:
            findings = lint_paths(args.paths, select=select)
        except (FileNotFoundError, KeyError) as exc:
            raise SystemExit(f"repro lint: {exc}") from exc
        if resolve_format(args) == "json":
            print(findings_to_json(findings), file=stream)
        else:
            print(format_findings(findings), file=stream)
        return 1 if has_errors(findings) else 0


def lint_main(argv: Optional[Sequence[str]] = None, out: Optional[TextIO] = None) -> int:
    """Entry point for ``repro lint``; returns a process exit code."""
    return run_lint(build_lint_parser().parse_args(argv), out=out)


def _parse_ues_range(text: str) -> tuple[int, int]:
    """``'2:48'`` (or a single ``'8'``) -> (min_ues, max_ues)."""
    try:
        if ":" in text:
            lo_s, _, hi_s = text.partition(":")
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(text)
    except ValueError as exc:
        raise SystemExit(
            f"repro check: --ues must be 'N' or 'MIN:MAX', got {text!r}"
        ) from exc
    if not 1 <= lo <= hi <= N_CORES:
        raise SystemExit(
            f"repro check: need 1 <= MIN <= MAX <= {N_CORES} in --ues, got {text!r}"
        )
    return lo, hi


def configure_check_parser(p: argparse.ArgumentParser) -> None:
    """Add the ``repro check`` arguments to an existing parser."""
    p.add_argument(
        "--program",
        type=str,
        default="",
        help="check one program given as 'file.py:function' instead of the "
        "built-in battery",
    )
    p.add_argument(
        "--ues",
        type=str,
        default=None,
        metavar="N|MIN:MAX",
        help=f"UE count for --program, or a range run once per count "
        f"(default 4; 1 <= MIN <= MAX <= {N_CORES}); needs --program",
    )
    p.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    p.add_argument(
        "--no-determinism",
        action="store_true",
        help="skip the replay-based determinism verification",
    )
    add_json_flag(p)
    add_output_flag(p)


def build_check_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro check",
        description="Run RCCE programs under the dynamic race/deadlock/"
        "determinism checkers.",
    )
    configure_check_parser(p)
    return p


def run_check(args: argparse.Namespace, out: Optional[TextIO] = None) -> int:
    """Execute ``repro check`` from a parsed namespace."""
    from .check import check_battery, load_program, run_checked

    verify = not args.no_determinism
    if args.program:
        min_ues, max_ues = _parse_ues_range(args.ues or "4")
        try:
            name, fn = load_program(args.program)
        except (ValueError, OSError, AttributeError, TypeError) as exc:
            raise SystemExit(f"repro check: {exc}") from exc
        results = [
            run_checked(name, fn, n_ues, verify_determinism=verify)
            for n_ues in range(min_ues, max_ues + 1)
        ]
    elif args.ues is not None:
        raise SystemExit(
            "repro check: --ues needs --program (the built-in battery runs "
            "each program at its own fixed UE count)"
        )
    else:
        results = check_battery(verify_determinism=verify)

    all_findings: List[Finding] = []
    with open_output(args, out) as stream:
        if resolve_format(args) == "json":
            payload = []
            for r in results:
                payload.append(
                    {
                        "program": r.name,
                        "n_ues": r.n_ues,
                        "completed": r.completed,
                        "deterministic": r.deterministic,
                        "ok": r.ok,
                        "findings": json.loads(findings_to_json(r.findings)),
                    }
                )
                all_findings.extend(r.findings)
            print(json.dumps(payload, indent=2), file=stream)
        else:
            for r in results:
                status = "ok" if r.ok else "FAIL"
                det = (
                    ""
                    if r.deterministic is None
                    else f", deterministic={'yes' if r.deterministic else 'NO'}"
                )
                done = "yes" if r.completed else "NO"
                print(
                    f"[{status}] {r.name} @ n_ues={r.n_ues}: completed={done}{det}",
                    file=stream,
                )
                for f in r.findings:
                    print(f"    {f}", file=stream)
                all_findings.extend(r.findings)
            n_fail = sum(1 for r in results if not r.ok)
            print(
                f"{len(results)} program(s) checked, {n_fail} failing", file=stream
            )
    failed = any(not r.ok for r in results) or any(
        f.severity is Severity.ERROR for f in all_findings
    )
    return 1 if failed else 0


def check_main(argv: Optional[Sequence[str]] = None, out: Optional[TextIO] = None) -> int:
    """Entry point for ``repro check``; returns a process exit code."""
    return run_check(build_check_parser().parse_args(argv), out=out)
