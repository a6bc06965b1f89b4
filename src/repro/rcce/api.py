"""RCCE-flavoured communicator API.

Intel's RCCE library addresses the participating cores as *units of
execution* (UEs) ranked 0..n-1, decoupled from physical core ids by a
configurable mapping — the indirection the paper's mapping study turns
(paper Sec. II).  :class:`RCCEComm` mirrors the RCCE primitives the
SpMV code needs:

====================  =============================================
RCCE call              here
====================  =============================================
``RCCE_send/recv``     :meth:`RCCEComm.send` / :meth:`RCCEComm.recv`
``RCCE_barrier``       :meth:`RCCEComm.barrier`
``RCCE_bcast``         :meth:`RCCEComm.bcast`
``RCCE_reduce``        :meth:`RCCEComm.reduce` / :meth:`allreduce`
``RCCE_wtime``         :meth:`RCCEComm.wtime`
====================  =============================================

All communication methods are generators that must be driven with
``yield from`` inside a UE process; they advance simulated time by the
modeled MPB/mesh cost while moving real Python/NumPy payloads.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

import numpy as np

from ..sim import SimEvent
from . import collectives
from .mpb import Envelope, chunked_transfer_time

__all__ = ["payload_bytes", "RCCEComm"]

CommGen = Generator[SimEvent, Any, Any]


def payload_bytes(obj: Any) -> int:
    """Wire size of a message payload.

    NumPy arrays count their buffer; scalars count 8 bytes; tuples/lists
    sum their elements.  Anything else costs a flat 64 bytes (control
    messages).
    """
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (int, float, complex, np.number)):
        return 8
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if isinstance(obj, (tuple, list)):
        return sum(payload_bytes(o) for o in obj)
    return 64


class RCCEComm:
    """Communication handle of one unit of execution."""

    def __init__(self, runtime: Any, ue: int) -> None:
        self._rt = runtime
        self.ue = ue
        self._collective_depth = 0

    # -- checker hooks -----------------------------------------------------

    def _enter_collective(self, kind: str, payload: Any) -> None:
        """Called by the collective layer on entry (outermost call only
        is reported, so a barrier's internal reduce+bcast don't count)."""
        self._collective_depth += 1
        checker = self._rt.checker
        if checker is not None and self._collective_depth == 1:
            nbytes = 0 if payload is None else payload_bytes(payload)
            checker.on_collective_enter(self.ue, kind, nbytes, self._rt.sim.now)

    def _exit_collective(self) -> None:
        self._collective_depth -= 1

    # -- identity ------------------------------------------------------------

    @property
    def num_ues(self) -> int:
        """Number of units of execution in the job."""
        return self._rt.n_ues

    @property
    def core(self) -> int:
        """Physical SCC core this UE is mapped onto."""
        return self._rt.core_map[self.ue]

    def wtime(self) -> float:
        """RCCE_wtime(): current simulated wall time in seconds."""
        return self._rt.sim.now

    # -- time modelling ---------------------------------------------------------

    def _traced(self, gen: CommGen, name: str, **args: Any) -> CommGen:
        """Wrap a communication generator in a begin/end span pair."""
        tr = self._rt.tracer
        if not tr:
            return gen

        def _wrapped() -> CommGen:
            tr.begin(name, tid=self.ue, cat="rcce", **args)
            try:
                result = yield from gen
            finally:
                tr.end(name, tid=self.ue, cat="rcce")
            return result

        return _wrapped()

    def compute(self, seconds: float) -> CommGen:
        """Model ``seconds`` of local computation (yield from it)."""
        if seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {seconds}")
        tr = self._rt.tracer
        if tr:
            with tr.span("compute", tid=self.ue, cat="rcce", seconds=seconds):
                yield self._rt.sim.timeout(seconds)
        else:
            yield self._rt.sim.timeout(seconds)

    def compute_cycles(self, cycles: float) -> CommGen:
        """Model ``cycles`` of work at this core's *current* frequency.

        Unlike :meth:`compute`, the wall time follows the live power
        state: after ``set_power`` the same cycle count takes
        proportionally longer or shorter.
        """
        if cycles < 0:
            raise ValueError(f"cycles must be >= 0, got {cycles}")
        mhz = self._rt.power.frequency_of_core(self.core)
        if mhz <= 0:
            raise ValueError(f"core {self.core} is power-gated (0 MHz)")
        seconds = cycles / (mhz * 1e6)
        yield self._rt.sim.timeout(seconds)

    # -- power management (RCCE_iset_power / RCCE_wait_power) -------------

    def set_power(self, mhz: float) -> CommGen:
        """Retune this core's voltage island to ``mhz`` (stalls the UE).

        The change affects all 8 cores of the island, exactly as on the
        chip.  Returns the stall time the UE observed.
        """
        domain = self._rt.power.domain_of_core(self.core)
        stall = self._rt.power.request_transition(domain, mhz)
        yield self._rt.sim.timeout(stall)
        return stall

    # -- point to point ----------------------------------------------------------

    def send(self, data: Any, dest: int, tag: int = 0) -> CommGen:
        """Blocking (rendezvous) send through the MPB."""
        rt = self._rt
        ue = self.ue
        if not 0 <= dest < rt.n_ues:
            raise ValueError(f"dest {dest} out of range [0, {rt.n_ues})")
        if dest == ue:
            raise ValueError("send to self would deadlock (rendezvous semantics)")
        nbytes = payload_bytes(data)
        tr = rt.tracer
        if tr:
            tr.begin("send", tid=ue, cat="rcce", dest=dest, tag=tag, bytes=nbytes)
            self._record_mesh_transfer(dest, nbytes)
        try:
            sim = rt.sim
            core_map = rt.core_map
            yield sim.timeout(chunked_transfer_time(rt.mesh, core_map[ue], core_map[dest], nbytes))
            ack = SimEvent(sim, ("ack:{}->{}", ue, dest))
            rt.mailboxes[dest].deliver(Envelope(ue, tag, data, ack))
            # Record the rendezvous block so the deadlock detector can name
            # this sender's (peer, tag) in its wait-for graph.
            rt.blocked_sends[ue] = (dest, tag)
            yield ack
            rt.blocked_sends.pop(ue, None)
        finally:
            if tr:
                tr.end("send", tid=ue, cat="rcce")

    def recv(self, source: Optional[int] = None, tag: Optional[int] = None) -> CommGen:
        """Blocking matched receive; returns the payload."""
        rt = self._rt
        tr = rt.tracer
        if tr:
            tr.begin(
                "recv",
                tid=self.ue,
                cat="rcce",
                source=-1 if source is None else source,
                tag=-1 if tag is None else tag,
            )
        try:
            env: Envelope = yield rt.mailboxes[self.ue].receive(source, tag)
            env.ack.succeed()
            return env.payload
        finally:
            if tr:
                tr.end("recv", tid=self.ue, cat="rcce")

    # -- collectives (delegated; kept as methods for API ergonomics) -----------

    def _record_mesh_transfer(self, dest: int, nbytes: int) -> None:
        """Account a traced message on the mesh's per-link counters."""
        topo = self._rt.topology
        src_tile = topo.tile_of_core(self.core)
        dst_tile = topo.tile_of_core(self._rt.core_map[dest])
        self._rt.mesh.record_transfer(
            (src_tile.x, src_tile.y), (dst_tile.x, dst_tile.y), nbytes
        )

    def barrier(self) -> CommGen:
        """RCCE_barrier: synchronize all UEs (yield from it)."""
        return self._traced(collectives.barrier(self), "barrier")

    def bcast(self, data: Any, root: int = 0) -> CommGen:
        """RCCE_bcast: broadcast ``data`` from ``root`` to every UE."""
        return self._traced(collectives.bcast(self, data, root), "bcast", root=root)

    def reduce(
        self, value: Any, op: Optional[Callable[[Any, Any], Any]] = None, root: int = 0
    ) -> CommGen:
        """RCCE_reduce: fold values onto ``root`` (None elsewhere)."""
        return self._traced(collectives.reduce(self, value, op, root), "reduce", root=root)

    def allreduce(self, value: Any, op: Optional[Callable[[Any, Any], Any]] = None) -> CommGen:
        """Reduce then broadcast: every UE gets the folded value."""
        return self._traced(collectives.allreduce(self, value, op), "allreduce")

    def gather(self, value: Any, root: int = 0) -> CommGen:
        """Collect one value per UE into a rank-ordered list on ``root``."""
        return self._traced(collectives.gather(self, value, root), "gather", root=root)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RCCEComm ue={self.ue}/{self.num_ues} core={self.core}>"
