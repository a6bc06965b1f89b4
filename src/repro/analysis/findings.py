"""Structured diagnostics shared by the static linter and runtime checkers.

Every rule violation — whether found by AST inspection or observed
during a simulation — becomes one :class:`Finding` carrying a rule id,
severity, a stable source span (line, column, end line, end column —
all 1-based, 0 = unknown) and a fix hint, so tooling (CLI, CI, tests)
can consume every pass uniformly.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, fields
from typing import Any, Dict, Iterable, List


class Severity(enum.Enum):
    """How bad a finding is; ``ERROR`` findings fail the CLI run."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class Finding:
    """One diagnostic: what rule fired, where, and how to fix it."""

    rule: str                 #: rule id, e.g. "RCCE110"
    severity: Severity
    message: str              #: one-line description of the defect
    path: str = "<runtime>"   #: source file, or "<runtime>" for dynamic findings
    line: int = 0             #: 1-based start line (0 = not applicable)
    hint: str = ""            #: suggested fix
    col: int = 0              #: 1-based start column (0 = unknown)
    end_line: int = 0         #: 1-based end line (0 = unknown)
    end_col: int = 0          #: 1-based end column, exclusive (0 = unknown)

    @property
    def location(self) -> str:
        """``file:line[:col]`` rendering (file only when line unknown)."""
        if not self.line:
            return self.path
        if self.col:
            return f"{self.path}:{self.line}:{self.col}"
        return f"{self.path}:{self.line}"

    def __str__(self) -> str:
        text = f"{self.location}: {self.severity.value}: {self.rule}: {self.message}"
        if self.hint:
            text += f"  [hint: {self.hint}]"
        return text

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict (severity as its string value)."""
        d: Dict[str, Any] = {f.name: getattr(self, f.name) for f in fields(self)}
        d["severity"] = self.severity.value
        return d

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "Finding":
        """Inverse of :meth:`to_dict` (unknown keys are rejected)."""
        known = {f.name for f in fields(cls)}
        extra = set(d) - known
        if extra:
            raise ValueError(f"unknown Finding fields: {sorted(extra)}")
        payload = dict(d)
        payload["severity"] = Severity(payload["severity"])
        return cls(**payload)


def sort_findings(findings: Iterable[Finding]) -> List[Finding]:
    """Stable order: by file, then line, then column, then rule id."""
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule))


def format_findings(findings: Iterable[Finding]) -> str:
    """Human-readable report, one line per finding plus a summary."""
    ordered = sort_findings(findings)
    lines = [str(f) for f in ordered]
    n_err = sum(1 for f in ordered if f.severity is Severity.ERROR)
    n_warn = sum(1 for f in ordered if f.severity is Severity.WARNING)
    lines.append(
        f"{len(ordered)} finding(s): {n_err} error(s), {n_warn} warning(s)"
        if ordered
        else "no findings"
    )
    return "\n".join(lines)


def findings_to_json(findings: Iterable[Finding]) -> str:
    """JSON rendering (a list of objects) for machine consumers."""
    return json.dumps([f.to_dict() for f in sort_findings(findings)], indent=2)


def findings_from_json(text: str) -> List[Finding]:
    """Inverse of :func:`findings_to_json` (round-trip guaranteed)."""
    payload = json.loads(text)
    if not isinstance(payload, list):
        raise ValueError(f"expected a JSON list of findings, got {type(payload).__name__}")
    return [Finding.from_dict(d) for d in payload]


def has_errors(findings: Iterable[Finding]) -> bool:
    """True when any finding is ERROR severity (CLI exit-code driver)."""
    return any(f.severity is Severity.ERROR for f in findings)
