"""Structured error types for the RCCE runtime layer.

Protocol bugs on the real SCC hang the chip with no diagnostic; here
they raise typed exceptions that name the offending rank, peer and tag
so a simulation failure is actionable.  All inherit from
:class:`RCCEError` (itself a ``RuntimeError`` for backwards
compatibility with callers that catch broadly).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

__all__ = [
    "RCCEError",
    "RCCEDeadlockError",
    "RCCEBudgetExceededError",
    "WaitInfo",
    "format_wait_for",
]

#: One blocked UE's wait state: (kind, peer, tag) where kind is "recv"
#: or "send", peer is the UE rank waited on (None = wildcard) and tag
#: is the message tag (None = wildcard).
WaitInfo = Tuple[str, Optional[int], Optional[int]]


class RCCEError(RuntimeError):
    """Base class for RCCE protocol and usage errors."""


def format_wait_for(wait_for: Dict[int, Optional[WaitInfo]]) -> str:
    """Render a wait-for graph as one line per blocked UE."""
    from .collectives import tag_name  # local import avoids a cycle

    lines = []
    for ue in sorted(wait_for):
        info = wait_for[ue]
        if info is None:
            lines.append(f"  UE {ue}: blocked on an untracked event")
            continue
        kind, peer, tag = info
        peer_s = "any" if peer is None else str(peer)
        tag_s = "any" if tag is None else tag_name(tag)
        if kind == "recv":
            lines.append(f"  UE {ue}: waits in recv(source={peer_s}, tag={tag_s})")
        else:
            lines.append(f"  UE {ue}: blocked in send to UE {peer_s} (tag={tag_s})")
    return "\n".join(lines)


class RCCEDeadlockError(RCCEError):
    """The event queue drained while UEs were still blocked.

    Carries the wait-for graph: for every stuck UE, what it was waiting
    on when the simulation ran out of events.
    """

    def __init__(
        self, wait_for: Dict[int, Optional[WaitInfo]], sim_time: float
    ) -> None:
        self.wait_for = wait_for
        self.sim_time = sim_time
        stuck = sorted(wait_for)
        super().__init__(
            f"deadlock: UEs {stuck} never finished (event queue drained at "
            f"t={sim_time:.9f}); wait-for graph:\n{format_wait_for(wait_for)}"
        )


class RCCEBudgetExceededError(RCCEError):
    """The per-run simulated-time budget expired with UEs still running.

    Distinct from :class:`RCCEDeadlockError`: the event queue was *not*
    empty — the job was making (possibly pathological) progress but ran
    out of its allotted simulated time.  Campaigns convert this into a
    structured ``{"status": "timeout"}`` record and move on.
    """

    def __init__(self, budget: float, running_ues: list, sim_time: float) -> None:
        self.budget = budget
        self.running_ues = list(running_ues)
        self.sim_time = sim_time
        super().__init__(
            f"simulated-time budget of {budget:.9f}s exhausted at "
            f"t={sim_time:.9f} with UEs {self.running_ues} still running"
        )
