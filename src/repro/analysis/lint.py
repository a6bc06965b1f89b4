"""Static linter driver: walk sources, parse, run the rule catalogue.

The linter operates on plain source text (no imports are executed), so
it can safely inspect intentionally-buggy fixtures and third-party
programs.  Unparsable files become findings themselves (rule ``PARSE``)
rather than crashing the run.
"""

from __future__ import annotations

import ast
import os
from typing import Iterable, List, Optional, Sequence

from .findings import Finding, Severity
from .rules import ModuleContext, Rule, get_rule, run_rules

__all__ = ["lint_source", "lint_file", "lint_paths", "iter_python_files"]

_SKIP_DIRS = {"__pycache__", ".git", ".pytest_cache", "build", "dist"}


def iter_python_files(paths: Iterable[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames if d not in _SKIP_DIRS and not d.endswith(".egg-info")
                )
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        out.append(os.path.join(dirpath, name))
        elif path.endswith(".py"):
            out.append(path)
        else:
            raise FileNotFoundError(f"not a Python file or directory: {path}")
    return out


def _resolve_rules(select: Optional[Sequence[str]]) -> Optional[List[Rule]]:
    if select is None:
        return None
    return [get_rule(rid) for rid in select]


def lint_source(
    source: str, path: str = "<string>", select: Optional[Sequence[str]] = None
) -> List[Finding]:
    """Lint one source string; returns findings (possibly a parse error)."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                rule="PARSE",
                severity=Severity.ERROR,
                message=f"syntax error: {exc.msg}",
                path=path,
                line=exc.lineno or 0,
                hint="fix the syntax before linting",
            )
        ]
    return run_rules(ModuleContext(path, source, tree), _resolve_rules(select))


def lint_file(path: str, select: Optional[Sequence[str]] = None) -> List[Finding]:
    """Lint one file on disk."""
    with open(path, "r", encoding="utf-8") as fh:
        return lint_source(fh.read(), path, select)


def lint_paths(
    paths: Iterable[str], select: Optional[Sequence[str]] = None
) -> List[Finding]:
    """Lint every ``.py`` file under the given files/directories."""
    findings: List[Finding] = []
    for path in iter_python_files(paths):
        findings.extend(lint_file(path, select))
    return findings
