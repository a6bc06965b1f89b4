"""Message-passing buffer (MPB) model and matched mailboxes.

Every SCC tile holds a 16 KB message-passing buffer (8 KB per core) —
the only on-die memory cores can share (paper Sec. II).  RCCE moves
messages through it in MPB-sized chunks.  We model:

* **capacity** — transfers are serialized in ``MPB_BYTES_PER_CORE``
  chunks (a 1 MB message costs 128 chunk round-trips);
* **timing** — each chunk pays the mesh route time for its size
  (:meth:`repro.scc.mesh.MeshNetwork.message_time`);
* **matching** — :class:`Mailbox` implements (source, tag) matched
  delivery with rendezvous acknowledgement, which is how the RCCE
  blocking send/recv pair behaves.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, List, Optional, Tuple

from ..sim import SimEvent, Simulator
from .errors import RCCEError

__all__ = ["MPB_BYTES_PER_CORE", "chunked_transfer_time", "Envelope", "Mailbox"]

#: 8 KB of MPB per core (16 KB per tile shared by its two cores).
MPB_BYTES_PER_CORE = 8 * 1024


def chunked_transfer_time(mesh, src_core: int, dst_core: int, nbytes: int) -> float:
    """Seconds to move ``nbytes`` through the MPB in 8 KB chunks.

    Chunks are strictly sequential: the single per-core buffer must be
    drained by the receiver before the next chunk is written, which is
    the dominant cost of large RCCE messages on the real chip.
    """
    if nbytes < 0:
        raise ValueError(f"nbytes must be >= 0, got {nbytes}")
    if nbytes == 0:
        return mesh.core_message_time(src_core, dst_core, 0)
    full, rem = divmod(nbytes, MPB_BYTES_PER_CORE)
    t = full * mesh.core_message_time(src_core, dst_core, MPB_BYTES_PER_CORE)
    if rem:
        t += mesh.core_message_time(src_core, dst_core, rem)
    return t


@dataclass
class Envelope:
    """One in-flight message."""

    source: int
    tag: int
    payload: Any
    ack: SimEvent = field(repr=False)


class Mailbox:
    """Per-UE matched receive queue with rendezvous semantics.

    ``deliver`` enqueues an envelope (or hands it straight to a waiting
    matching receiver).  ``receive`` returns an event that triggers with
    the envelope once a match exists; the receiver must call
    ``envelope.ack.succeed()`` to release the blocked sender.

    ``n_peers`` (when known) bounds the valid source ranks so a recv
    naming a nonexistent peer raises :class:`~repro.rcce.errors.RCCEError`
    immediately instead of hanging the job.  Negative tags are rejected
    unconditionally: the runtime reserves a positive high-tag range for
    collectives (see :mod:`repro.rcce.collectives`) and user tags must
    be non-negative.
    """

    def __init__(
        self,
        sim: Simulator,
        owner: int,
        n_peers: Optional[int] = None,
        checker: Optional[Any] = None,
        tracer: Optional[Any] = None,
    ) -> None:
        self.sim = sim
        self.owner = owner
        self.n_peers = n_peers
        self.checker = checker
        #: optional :class:`repro.obs.Tracer`: queued-envelope occupancy
        #: (the model's MPB pressure signal) is sampled on every change.
        self.tracer = tracer
        self._pending: Deque[Envelope] = deque()
        self._waiting: Deque[Tuple[Optional[int], Optional[int], SimEvent]] = deque()

    @staticmethod
    def _matches(env: Envelope, source: Optional[int], tag: Optional[int]) -> bool:
        return (source is None or env.source == source) and (tag is None or env.tag == tag)

    def _validate(self, source: Optional[int], tag: Optional[int], op: str) -> None:
        if tag is not None and tag < 0:
            raise RCCEError(
                f"mailbox[{self.owner}].{op}: negative tag {tag} is invalid "
                f"(user tags must be >= 0)"
            )
        if source is not None and self.n_peers is not None:
            if not 0 <= source < self.n_peers:
                raise RCCEError(
                    f"mailbox[{self.owner}].{op}: peer rank {source} does not "
                    f"exist (job has UEs 0..{self.n_peers - 1})"
                )

    def deliver(self, env: Envelope) -> None:
        """Enqueue an envelope or hand it to a waiting matching receiver."""
        self._validate(env.source, env.tag, "deliver")
        tr = self.tracer
        if tr:
            tr.metrics.counter("mpb.delivered", ue=self.owner).inc()
        for i, (src, tag, ev) in enumerate(self._waiting):
            if self._matches(env, src, tag):
                del self._waiting[i]
                ev.succeed(env)
                return
        if self.checker is not None:
            for queued in self._pending:
                if queued.source == env.source and queued.tag == env.tag:
                    self.checker.on_mailbox_race(
                        self.owner, env.source, env.tag, self.sim.now
                    )
                    break
        self._pending.append(env)
        self._occupancy_changed()

    def _occupancy_changed(self) -> None:
        tr = self.tracer
        if tr:
            depth = len(self._pending)
            tr.counter("mpb.pending", depth, tid=self.owner)
            tr.metrics.gauge("mpb.pending", ue=self.owner).set(depth)

    def receive(self, source: Optional[int] = None, tag: Optional[int] = None) -> SimEvent:
        """Event that triggers with the next (source, tag)-matching envelope."""
        self._validate(source, tag, "receive")
        ev = self.sim.event(f"mailbox[{self.owner}].recv")
        for i, env in enumerate(self._pending):
            if self._matches(env, source, tag):
                del self._pending[i]
                self._occupancy_changed()
                ev.succeed(env)
                return ev
        self._waiting.append((source, tag, ev))
        return ev

    @property
    def pending_count(self) -> int:
        """Number of undelivered envelopes queued in this mailbox."""
        return len(self._pending)

    def waiting_requests(self) -> List[Tuple[Optional[int], Optional[int]]]:
        """(source, tag) of every receive still blocked in this mailbox.

        The deadlock detector reads this to build its wait-for graph.
        """
        return [(src, tag) for src, tag, _ev in self._waiting]
