"""The RCCE runtime: UEs as simulated processes on SCC cores.

:class:`RCCERuntime` owns one :class:`~repro.sim.Simulator`, a mesh
model clocked at the chip configuration's frequency, and one mailbox
per UE.  ``run(fn)`` spawns ``fn(comm)`` as a generator process per UE
(mirroring how every core executes the same RCCE binary), drives the
simulation to completion and returns each UE's return value plus its
finish time.

The *core map* — which physical core each UE rank lands on — is the
knob of the paper's mapping study; mapping policies live in
:mod:`repro.core.mapping` and are passed in here as an explicit list.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence, Tuple

from ..scc.chip import CONF0, SCCConfig
from ..scc.mesh import MeshNetwork
from ..scc.topology import N_CORES, SCCTopology
from ..sim import Process, SimEvent, Simulator
from .api import RCCEComm
from .errors import RCCEBudgetExceededError, RCCEDeadlockError, WaitInfo
from .mpb import Mailbox
from .power import PowerManager

__all__ = ["UEResult", "RCCERuntime", "checks_enabled_by_default"]

UEFunction = Callable[..., Generator[SimEvent, Any, Any]]


def checks_enabled_by_default() -> bool:
    """Whether new runtimes attach a RuntimeChecker automatically.

    Controlled by the ``REPRO_CHECKS`` environment variable ("1"/"true"/
    "on" enable).  The test suite turns it on for every run; production
    campaigns leave it off and opt in per runtime via ``checks=True``.
    """
    return os.environ.get("REPRO_CHECKS", "").lower() in ("1", "true", "on", "yes")


class UEResult:
    """Return value and timing of one UE."""

    __slots__ = ("ue", "core", "value", "finish_time")

    def __init__(self, ue: int, core: int, value: Any, finish_time: float) -> None:
        self.ue = ue
        self.core = core
        self.value = value
        self.finish_time = finish_time

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<UEResult ue={self.ue} core={self.core} t={self.finish_time:.6f}>"


class RCCERuntime:
    """A booted RCCE job: n_ues ranks mapped onto SCC cores."""

    def __init__(
        self,
        core_map: Sequence[int],
        config: SCCConfig = CONF0,
        topology: Optional[SCCTopology] = None,
        checks: Optional[bool] = None,
        checker: Optional[Any] = None,
        record_trace: bool = False,
        tracer: Optional[Any] = None,
    ) -> None:
        core_list = list(core_map)
        if not core_list:
            raise ValueError("core_map must name at least one core")
        if len(set(core_list)) != len(core_list):
            raise ValueError(f"core_map has duplicate cores: {core_list}")
        for c in core_list:
            if not 0 <= c < N_CORES:
                raise ValueError(f"core {c} out of range [0, {N_CORES})")
        self.core_map: List[int] = core_list
        self.n_ues = len(core_list)
        self.config = config
        self.topology = topology or SCCTopology()
        #: optional :class:`repro.obs.Tracer` shared by every layer of
        #: this job (simulator, mesh, mailboxes).
        self.tracer = tracer if tracer else None
        self.sim = Simulator(record_trace=record_trace, tracer=self.tracer)
        if self.tracer is not None:
            self.tracer.bind_clock(lambda: self.sim.now)
        self.mesh = MeshNetwork(self.topology, mesh_mhz=config.mesh_mhz, tracer=self.tracer)
        self.power = PowerManager(config, self.topology)
        if checker is None and (checks if checks is not None else checks_enabled_by_default()):
            from ..analysis.runtime_checks import RuntimeChecker

            checker = RuntimeChecker()
        self.checker = checker
        if checker is not None:
            checker.attach(self)
        #: rendezvous sends currently blocked on their ack: ue -> (dest, tag)
        self.blocked_sends: Dict[int, Tuple[int, int]] = {}
        self.mailboxes = [
            Mailbox(
                self.sim,
                ue,
                n_peers=self.n_ues,
                checker=checker,
                tracer=self.tracer,
            )
            for ue in range(self.n_ues)
        ]
        self.comms = [RCCEComm(self, ue) for ue in range(self.n_ues)]

    def run(self, fn: UEFunction, *args: Any, until: Optional[float] = None) -> List[UEResult]:
        """Execute ``fn(comm, *args)`` on every UE; returns per-UE results.

        Raises :class:`RCCEDeadlockError` if any UE is still blocked when
        the event queue drains — silent partial completion would mask
        protocol bugs — and :class:`RCCEBudgetExceededError` when an
        ``until`` budget expires with work still pending (the job was
        live, it just ran out of simulated time).
        """
        finish_times = [0.0] * self.n_ues

        tr = self.tracer
        procs: List[Process] = []
        for ue in range(self.n_ues):
            comm = self.comms[ue]
            gen = fn(comm, *args)
            proc = Process(self.sim, gen, name=f"ue{ue}")
            if tr:
                tr.begin("ue.run", tid=ue, cat="rcce", core=self.core_map[ue])

            def _stamp(_value: Any, ue: int = ue) -> None:
                finish_times[ue] = self.sim.now
                if tr:
                    tr.end("ue.run", tid=ue, cat="rcce")

            proc.done.add_callback(_stamp)
            procs.append(proc)

        self.sim.run(until=until)

        stuck = [ue for ue in range(self.n_ues) if not procs[ue].finished]
        if stuck:
            if until is not None and not self.sim.empty():
                raise RCCEBudgetExceededError(until, stuck, self.sim.now)
            wait_for = self._wait_for_graph(stuck)
            if self.checker is not None:
                self.checker.on_deadlock(wait_for, self.sim.now)
            raise RCCEDeadlockError(wait_for, self.sim.now)
        return [
            UEResult(ue, self.core_map[ue], procs[ue].done.value, finish_times[ue])
            for ue in range(self.n_ues)
        ]

    def _wait_for_graph(self, stuck: Sequence[int]) -> Dict[int, Optional[WaitInfo]]:
        """What each stuck UE was blocked on when the queue drained.

        A UE is either parked in a matched receive (its mailbox holds the
        (source, tag) it asked for), blocked in a rendezvous send waiting
        for the receiver's ack, or — rarely — waiting on an event the
        runtime does not track (e.g. another process's ``done``).
        """
        graph: Dict[int, Optional[WaitInfo]] = {}
        for ue in stuck:
            waits = self.mailboxes[ue].waiting_requests()
            if waits:
                source, tag = waits[0]
                graph[ue] = ("recv", source, tag)
            elif ue in self.blocked_sends:
                dest, tag = self.blocked_sends[ue]
                graph[ue] = ("send", dest, tag)
            else:
                graph[ue] = None
        return graph

    def makespan(self, results: List[UEResult]) -> float:
        """Parallel completion time: the slowest UE's finish time."""
        return max(r.finish_time for r in results)
