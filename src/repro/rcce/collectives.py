"""Collective operations over the point-to-point layer.

All collectives use binomial trees on UE ranks (the algorithms RCCE
ships): ``reduce`` folds up the tree, ``bcast`` fans down, ``barrier``
is a zero-payload reduce+bcast, ``allreduce`` is reduce+bcast of the
result, ``gather`` folds lists up the tree.

Tree communication means collective cost grows with log2(n_ues) mesh
transfers, so mappings that spread UEs across the chip pay more — a
second-order effect of the paper's mapping study that falls out of the
model for free.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Generator, Optional

__all__ = [
    "RESERVED_TAG_BASE",
    "tag_name",
    "barrier",
    "bcast",
    "reduce",
    "allreduce",
    "gather",
]

CommGen = Generator[Any, Any, Any]

#: Tags at or above this value are reserved for the collective layer.
#: User point-to-point tags must satisfy ``0 <= tag < RESERVED_TAG_BASE``
#: (negative tags are rejected by the mailbox); the static linter flags
#: literal tags that stray into the reserved range.
RESERVED_TAG_BASE = 1 << 20

#: distinct tag space per collective so user messages never interfere.
_TAG_BARRIER = RESERVED_TAG_BASE + 0
_TAG_BCAST = RESERVED_TAG_BASE + 1
_TAG_REDUCE = RESERVED_TAG_BASE + 2
_TAG_GATHER = RESERVED_TAG_BASE + 3

_TAG_NAMES = {
    _TAG_BARRIER: "collective:barrier",
    _TAG_BCAST: "collective:bcast",
    _TAG_REDUCE: "collective:reduce",
    _TAG_GATHER: "collective:gather",
}


def tag_name(tag: int) -> str:
    """Human-readable name of a tag (reserved tags get their collective)."""
    return _TAG_NAMES.get(tag, str(tag))


def _relative_rank(ue: int, root: int, n: int) -> int:
    return (ue - root) % n


def _absolute_rank(rel: int, root: int, n: int) -> int:
    return (rel + root) % n


def _enter(comm, kind: str, payload: Any) -> None:
    """Notify the runtime checker (if any) that a collective started."""
    comm._enter_collective(kind, payload)


def _exit(comm) -> None:
    comm._exit_collective()


def reduce(comm, value: Any, op: Optional[Callable[[Any, Any], Any]] = None, root: int = 0) -> CommGen:
    """Binomial-tree reduction; the result lands on ``root`` (None elsewhere)."""
    if not 0 <= root < comm.num_ues:
        raise ValueError(f"root {root} out of range [0, {comm.num_ues})")
    op = op or operator.add
    n = comm.num_ues
    rel = _relative_rank(comm.ue, root, n)
    _enter(comm, "reduce", value)
    try:
        acc = value
        mask = 1
        while mask < n:
            if rel & mask:
                parent = _absolute_rank(rel & ~mask, root, n)
                yield from comm.send(acc, parent, tag=_TAG_REDUCE)
                return None
            partner_rel = rel | mask
            if partner_rel < n:
                child = _absolute_rank(partner_rel, root, n)
                other = yield from comm.recv(child, tag=_TAG_REDUCE)
                acc = op(acc, other)
            mask <<= 1
        return acc
    finally:
        _exit(comm)


def bcast(comm, value: Any, root: int = 0) -> CommGen:
    """Binomial-tree broadcast; every UE returns the root's value.

    Standard MPI algorithm: a non-root rank receives from the rank that
    differs in its lowest set bit, then both fan out to progressively
    lower bits.
    """
    if not 0 <= root < comm.num_ues:
        raise ValueError(f"root {root} out of range [0, {comm.num_ues})")
    n = comm.num_ues
    rel = _relative_rank(comm.ue, root, n)
    _enter(comm, "bcast", value)
    try:
        data = value
        mask = 1
        while mask < n:
            if rel & mask:
                parent = _absolute_rank(rel - mask, root, n)
                data = yield from comm.recv(parent, tag=_TAG_BCAST)
                break
            mask <<= 1
        mask >>= 1
        while mask > 0:
            child_rel = rel + mask
            if child_rel < n:
                yield from comm.send(data, _absolute_rank(child_rel, root, n), tag=_TAG_BCAST)
            mask >>= 1
        return data
    finally:
        _exit(comm)


def barrier(comm) -> CommGen:
    """All UEs synchronize; returns when every UE has entered."""
    _enter(comm, "barrier", None)
    try:
        token = yield from reduce(comm, 0, operator.add, root=0)
        yield from bcast(comm, token, root=0)
        return None
    finally:
        _exit(comm)


def allreduce(comm, value: Any, op: Optional[Callable[[Any, Any], Any]] = None) -> CommGen:
    """Reduce to UE 0, then broadcast the result to everyone."""
    _enter(comm, "allreduce", value)
    try:
        acc = yield from reduce(comm, value, op, root=0)
        result = yield from bcast(comm, acc, root=0)
        return result
    finally:
        _exit(comm)


def gather(comm, value: Any, root: int = 0) -> CommGen:
    """Gather one value per UE into a rank-ordered list on ``root``.

    Implemented as a binomial-tree fold of (rank, value) pairs; non-root
    UEs return None.
    """
    _enter(comm, "gather", value)
    try:
        pairs = yield from reduce(comm, [(comm.ue, value)], operator.add, root=root)
        if pairs is None:
            return None
        pairs.sort(key=lambda rv: rv[0])
        return [v for _, v in pairs]
    finally:
        _exit(comm)
