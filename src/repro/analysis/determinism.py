"""Determinism verification: replay a run and diff the schedules.

The engine's contract is that two runs with the same inputs produce
bit-identical (time, seq, event-name) dispatch schedules.  Anything that
consults host state — wall-clock time, unseeded RNGs, dict ordering of
freshly hashed objects — breaks that silently.  This module executes a
UE program twice on fresh runtimes with trace recording on and reports
the first point where the schedules diverge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..scc.chip import CONF0, SCCConfig
from .findings import Finding, Severity

__all__ = ["DeterminismReport", "verify_program_determinism", "diff_traces"]

Trace = List[Tuple[float, int, str]]


@dataclass(frozen=True)
class DeterminismReport:
    """Outcome of a replay comparison."""

    deterministic: bool
    events_compared: int
    divergence_index: Optional[int] = None
    first_difference: str = ""
    findings: List[Finding] = field(default_factory=list)


def diff_traces(a: Trace, b: Trace) -> Tuple[Optional[int], str]:
    """Index and description of the first divergence (None if identical)."""
    for i, (ea, eb) in enumerate(zip(a, b)):
        if ea != eb:
            return i, f"run 1 dispatched {ea!r}, run 2 dispatched {eb!r}"
    if len(a) != len(b):
        i = min(len(a), len(b))
        longer = "run 1" if len(a) > len(b) else "run 2"
        return i, f"{longer} dispatched {abs(len(a) - len(b))} extra event(s)"
    return None, ""


def verify_program_determinism(
    fn: Callable[..., Any],
    n_ues: int,
    args_factory: Optional[Callable[[], Sequence[Any]]] = None,
    config: SCCConfig = CONF0,
    core_map: Optional[Sequence[int]] = None,
    runs: int = 2,
) -> DeterminismReport:
    """Run ``fn`` on fresh runtimes ``runs`` times and diff the schedules.

    ``args_factory`` rebuilds the program's extra arguments for every
    run (mutable containers like result dicts must not be shared between
    replays, or the replay itself would perturb the program).
    """
    from ..core.mapping import distance_reduction_mapping
    from ..rcce.runtime import RCCERuntime

    if runs < 2:
        raise ValueError(f"need at least 2 runs to compare, got {runs}")
    cores = list(core_map) if core_map is not None else distance_reduction_mapping(n_ues)

    traces: List[Trace] = []
    for _ in range(runs):
        rt = RCCERuntime(cores, config=config, record_trace=True, checks=False)
        extra = list(args_factory()) if args_factory is not None else []
        rt.run(fn, *extra)
        traces.append(list(rt.sim.trace))

    reference = traces[0]
    for other in traces[1:]:
        index, description = diff_traces(reference, other)
        if index is not None:
            finding = Finding(
                rule="DET900",
                severity=Severity.ERROR,
                message=(
                    f"nondeterministic schedule: first divergence at event "
                    f"#{index}: {description}"
                ),
                hint=(
                    "remove wall-clock/unseeded-random/host-state dependencies "
                    "from the UE program (run `repro lint` on it)"
                ),
            )
            return DeterminismReport(
                deterministic=False,
                events_compared=index,
                divergence_index=index,
                first_difference=description,
                findings=[finding],
            )
    return DeterminismReport(deterministic=True, events_compared=len(reference))
