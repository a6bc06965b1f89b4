"""``repro lint`` / ``repro check`` / ``repro analyze`` implementations.

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
from .findings import Finding, Severity, findings_to_json, format_findings, has_errors
from .lint import lint_paths
from .rules import all_rules

__all__ = [
    "lint_main",
    "check_main",
    "analyze_main",
    "configure_lint_parser",
    "configure_check_parser",
    "configure_analyze_parser",
    "run_lint",
    "run_check",
    "run_analyze",
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
        "--ues", type=int, default=4, help="number of UEs for --program (default 4)"
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
        if args.ues < 1:
            raise SystemExit(f"--ues must be >= 1, got {args.ues}")
        try:
            name, fn = load_program(args.program)
        except (ValueError, OSError, AttributeError, TypeError) as exc:
            raise SystemExit(f"repro check: {exc}") from exc
        results = [run_checked(name, fn, args.ues, verify_determinism=verify)]
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
                print(
                    f"[{status}] {r.name}: completed={'yes' if r.completed else 'NO'}{det}",
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


def _parse_ues_range(text: str) -> tuple[int, int]:
    """``'2:16'`` (or a single ``'8'``) -> (min_ues, max_ues)."""
    try:
        if ":" in text:
            lo_s, _, hi_s = text.partition(":")
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(text)
    except ValueError as exc:
        raise SystemExit(
            f"repro analyze: --ues-range must be 'MIN:MAX' or 'N', got {text!r}"
        ) from exc
    if lo < 1 or hi < lo:
        raise SystemExit(
            f"repro analyze: need 1 <= MIN <= MAX in --ues-range, got {text!r}"
        )
    return lo, hi


def configure_analyze_parser(p: argparse.ArgumentParser) -> None:
    """Add the ``repro analyze`` arguments to an existing parser."""
    p.add_argument(
        "paths",
        nargs="*",
        help="files, directories, or 'file.py:function' specs to analyze",
    )
    p.add_argument(
        "--ues-range",
        type=str,
        default="2:16",
        metavar="MIN:MAX",
        help="core-count range the provers must hold over (default 2:16)",
    )
    p.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (sarif = SARIF 2.1.0 for code scanning)",
    )
    p.add_argument(
        "--select",
        type=str,
        default="",
        help="comma-separated DF rule ids to report (default: all)",
    )
    p.add_argument(
        "--list-rules", action="store_true", help="print the DF rule catalogue and exit"
    )
    p.add_argument(
        "--compare-runtime",
        action="store_true",
        help="also execute each 'file.py:function' spec under the RT80x "
        "runtime checkers and fail on static/dynamic disagreement",
    )
    p.add_argument(
        "--ues",
        type=int,
        default=4,
        help="number of UEs for the --compare-runtime execution (default 4)",
    )
    add_json_flag(p)
    add_output_flag(p)


def build_analyze_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro analyze",
        description="Symbolically analyze RCCE programs: static deadlock "
        "proofs (DF501), collective congruence (DF502) and MPB capacity "
        "bounds (DF503) over a range of core counts.",
    )
    configure_analyze_parser(p)
    return p


def run_analyze(args: argparse.Namespace, out: Optional[TextIO] = None) -> int:
    """Execute ``repro analyze`` from a parsed namespace."""
    from .crosscheck import crosscheck_findings, crosscheck_program
    from .dataflow import all_dataflow_rules, analyze_paths
    from .sarif import sarif_to_json

    min_ues, max_ues = _parse_ues_range(args.ues_range)
    select = str_list(args.select) or None
    fmt = resolve_format(args)
    with open_output(args, out) as stream:
        if args.list_rules:
            for r in all_dataflow_rules():
                print(
                    f"{r.id}  [{r.severity.value:7s}]  {r.name}: {r.summary}",
                    file=stream,
                )
            return 0
        if not args.paths:
            raise SystemExit(
                "repro analyze: at least one path is required (or --list-rules)"
            )
        if args.compare_runtime:
            if fmt == "sarif":
                raise SystemExit(
                    "repro analyze: --compare-runtime reports mixed static/"
                    "runtime findings; use --format text or json"
                )
            if args.ues < 1:
                raise SystemExit(f"--ues must be >= 1, got {args.ues}")
            findings: List[Finding] = []
            disagreed = False
            for spec in args.paths:
                try:
                    result = crosscheck_program(
                        spec, args.ues, min_ues=min_ues, max_ues=max_ues
                    )
                except (ValueError, OSError, AttributeError, TypeError) as exc:
                    raise SystemExit(f"repro analyze: {exc}") from exc
                disagreed = disagreed or not result.agree
                findings.extend(crosscheck_findings(result))
                if fmt == "text":
                    print(result.describe(), file=stream)
            if fmt == "json":
                print(findings_to_json(findings), file=stream)
            else:
                print(format_findings(findings), file=stream)
            return 1 if disagreed or has_errors(findings) else 0
        try:
            findings = analyze_paths(
                args.paths, min_ues=min_ues, max_ues=max_ues, select=select
            )
        except (FileNotFoundError, KeyError, ValueError) as exc:
            raise SystemExit(f"repro analyze: {exc}") from exc
        if fmt == "sarif":
            print(sarif_to_json(findings), file=stream)
        elif fmt == "json":
            print(findings_to_json(findings), file=stream)
        else:
            print(format_findings(findings), file=stream)
        return 1 if has_errors(findings) else 0


def analyze_main(
    argv: Optional[Sequence[str]] = None, out: Optional[TextIO] = None
) -> int:
    """Entry point for ``repro analyze``; returns a process exit code."""
    return run_analyze(build_analyze_parser().parse_args(argv), out=out)
