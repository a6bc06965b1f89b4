"""Correctness tooling for RCCE programs and the SCC simulator.

Two cooperating layers (see ``docs/ANALYSIS.md``):

- **Static pass** — :mod:`repro.analysis.lint` walks Python sources with
  an AST rule catalogue (:mod:`repro.analysis.rules`) and flags SPMD
  protocol bugs (unmatched tags, rank-dependent collectives, reserved
  tags, self-sends), determinism hazards (wall-clock time, unseeded
  randomness, mutable defaults) and yield-protocol misuse before a
  single simulated cycle runs.

- **Dynamic pass** — :class:`~repro.analysis.runtime_checks.RuntimeChecker`
  hooks into the runtime (deadlock wait-for graphs, MPB overwrite races,
  collective mismatches) and
  :mod:`repro.analysis.determinism` replays runs to verify bit-identical
  schedules.  The SCC has at most 48 cores, so ``repro check --ues 2:48``
  runs a program at every core count and its verdict holds for all of
  them.

Both surfaces report structured :class:`~repro.analysis.findings.Finding`
objects and drive the ``repro lint`` / ``repro check`` CLI subcommands.
"""

from .determinism import DeterminismReport, verify_program_determinism
from .findings import (
    Finding,
    Severity,
    findings_from_json,
    findings_to_json,
    format_findings,
)
from .lint import lint_file, lint_paths, lint_source
from .rules import Rule, all_rules, get_rule, register_rule, rule
from .runtime_checks import RuntimeChecker

__all__ = [
    "Finding",
    "Severity",
    "findings_to_json",
    "findings_from_json",
    "format_findings",
    "lint_file",
    "lint_paths",
    "lint_source",
    "Rule",
    "all_rules",
    "get_rule",
    "register_rule",
    "rule",
    "RuntimeChecker",
    "DeterminismReport",
    "verify_program_determinism",
]
