"""Pure metadata naming the :class:`~repro.rcce.api.RCCEComm` surface.

One declarative table — no runtime imports, no side effects — naming
every communication method a UE program can call and its role (point
to point, collective, local).

The AST linter (:mod:`repro.analysis.rules`) reads it to recognize
``comm.<method>(...)`` calls; a drift test
(``tests/test_rcce_runtime.py``) asserts the table covers the *actual*
``RCCEComm`` generator methods, so an API change that forgets the
table fails CI immediately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet

__all__ = [
    "CommOp",
    "COMM_API",
    "COMM_GEN_METHODS",
    "COLLECTIVE_METHODS",
    "P2P_METHODS",
    "LOCAL_METHODS",
]


@dataclass(frozen=True)
class CommOp:
    """Static description of one ``RCCEComm`` method.

    ``kind`` is one of:

    - ``"p2p-send"``  — addressed message transmission;
    - ``"p2p-recv"``  — matched message reception;
    - ``"collective"`` — all UEs must participate;
    - ``"local"``     — advances simulated time only, no communication.
    """

    name: str
    kind: str


#: The full RCCE-style comm API, one entry per RCCEComm generator method.
COMM_API: Dict[str, CommOp] = {
    op.name: op
    for op in (
        CommOp("send", "p2p-send"),
        CommOp("recv", "p2p-recv"),
        CommOp("barrier", "collective"),
        CommOp("bcast", "collective"),
        CommOp("reduce", "collective"),
        CommOp("allreduce", "collective"),
        CommOp("gather", "collective"),
        CommOp("compute", "local"),
        CommOp("compute_cycles", "local"),
        CommOp("set_power", "local"),
    )
}

#: generator methods that must be driven with ``yield from``.
COMM_GEN_METHODS: FrozenSet[str] = frozenset(COMM_API)

#: the collective subset (rank-dependent entry deadlocks the job).
COLLECTIVE_METHODS: FrozenSet[str] = frozenset(
    name for name, op in COMM_API.items() if op.kind == "collective"
)

#: point-to-point methods (sends and receives).
P2P_METHODS: FrozenSet[str] = frozenset(
    name for name, op in COMM_API.items() if op.kind.startswith("p2p")
)

#: purely local time-advancing methods.
LOCAL_METHODS: FrozenSet[str] = frozenset(
    name for name, op in COMM_API.items() if op.kind == "local"
)
