"""The paper's machine — Intel SCC — as the zoo's first member.

Pure delegation to :mod:`repro.scc`: the same ``SCCTopology``,
``MemorySystem``, ``MeshNetwork``, power model, presets and timing
objects the experiment core always used, now reached through the
:class:`repro.machine.base.MachineModel` interface.  Because every
substrate is the *same object*, SCC-via-MachineModel is bitwise
identical to the pre-zoo code path (pinned by the golden campaign
fixture and the differential fastpath harness).
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

from ..scc.chip import CONF0, PRESETS, SCCConfig
from ..scc.memory import MemorySystem
from ..scc.mesh import MeshNetwork
from ..scc.params import (
    CACHE_ASSOC,
    CACHE_LINE_BYTES,
    DEFAULT_TIMING,
    L1D_BYTES,
    L2_BYTES,
    P54CTimingParams,
)
from ..scc.topology import SCCTopology
from .base import CacheGeometry, MachineModel, MachineParams

__all__ = ["SCCMachine"]

_SCC_CACHE = CacheGeometry(
    line_bytes=CACHE_LINE_BYTES,
    l1_bytes=L1D_BYTES,
    l2_bytes=L2_BYTES,
    assoc=CACHE_ASSOC,
)


class SCCMachine(MachineModel):
    """48-core Intel SCC: 6x4 tile mesh, 4 DDR3 MCs, P54C cores.

    The only zoo member with the event-driven runtime (``mode="sim"``)
    and the trace-exact replay engine (``mode="exact-trace"``) — the
    paper's own machine keeps its full fidelity ladder.
    """

    machine_id = "scc-48"
    display_name = "Intel SCC (48 x P54C, 6x4 tile mesh, 4 DDR3 MCs)"
    comparison_label = "SCC"
    source = "Pichel & Rivera, IPDPS-W 2012 (the source paper); Intel SCC EAS"
    supported_modes = ("sim", "model", "exact-trace", "predict")

    def __init__(self) -> None:
        self._topology = SCCTopology()

    @property
    def topology(self) -> SCCTopology:
        return self._topology

    @property
    def cache(self) -> CacheGeometry:
        return _SCC_CACHE

    @property
    def timing(self) -> P54CTimingParams:
        return DEFAULT_TIMING

    @property
    def presets(self) -> Mapping[str, SCCConfig]:
        return PRESETS

    @property
    def default_config(self) -> SCCConfig:
        return CONF0

    def memory_system(
        self,
        config: SCCConfig,
        topology: Optional[SCCTopology] = None,
    ) -> MemorySystem:
        return MemorySystem(topology or self._topology, mem_mhz=config.mem_mhz)

    def interconnect(
        self,
        config: SCCConfig,
        topology: Optional[SCCTopology] = None,
        tracer: Optional[Any] = None,
    ) -> MeshNetwork:
        return MeshNetwork(
            topology or self._topology, mesh_mhz=config.mesh_mhz, tracer=tracer
        )

    def chip_power(self, config: SCCConfig) -> float:
        return config.full_chip_power()

    def params(self) -> MachineParams:
        return MachineParams(
            machine_id=self.machine_id,
            display_name=self.display_name,
            n_cores=self._topology.n_cores,
            n_controllers=len(self._topology.mc_coords),
            cache=_SCC_CACHE,
            interconnect="6x4 2D mesh (XY routing), 4 quadrant MCs",
            source=self.source,
        )
