"""Intel Xeon Phi (Knights Corner, 61 cores) machine model.

Calibrated against Saule, Kaya & Catalyurek, "Performance Evaluation of
Sparse Matrix Multiplication Kernels on Intel Xeon Phi"
(arXiv:1302.1078): 61 in-order cores at ~1.1 GHz on a bidirectional
ring, 512 KB L2 per core, 8 GDDR5 memory controllers interleaved
around the ring, 4-way SMT needed to fill the pipelines.  Their
headline result: SpMV is bandwidth-bound — with enough threads the
best kernels saturate at roughly 15-22 GFLOPS (double precision),
far below the compute peak, tracking the ~150-170 GB/s sustainable
read bandwidth.

Modeling choices:

- **Ring + interleaved MCs.** Cores sit on ring stops; each is served
  by its nearest of 8 controllers (GDDR5 interleaving makes distance a
  second-order effect, so hop counts are small: 0-4).
- **SMT occupancy folded into timing.** The model keeps one UE per
  core (the paper's framework), so the 4-way SMT that hides the
  in-order pipeline's latency appears as an *effective* per-nnz cycle
  cost: ~12 issue cycles/nnz per thread divided by ~4 resident threads
  -> ``base_cycles_per_nnz = 3.0`` at full occupancy
  (``SMT_OCCUPANCY = 4``).
- **GDDR5 bandwidth band.** 8 MCs x ~19 GB/s sustained = ~152 GB/s
  aggregate, the middle of the paper's measured STREAM-like band;
  scaling with ``mem_mhz`` around the 2750 MHz (5.5 GT/s) calibration
  point.
- **Power.** KNC cards publish board-level figures, not per-rail
  models: ~245 W under load for the SE10P-class part, ~300 W for the
  7120-class turbo preset.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

from .base import (
    CacheGeometry,
    CoreTimingParams,
    MachineModel,
    MachineParams,
    UniformMachineConfig,
)
from .generic import HopInterconnect, TableMemorySystem, TableTopology, ring_topology

__all__ = ["XeonPhiMachine"]

N_CORES = 61
N_MCS = 8
#: hardware threads per core the effective timing already accounts for.
SMT_OCCUPANCY = 4

#: sustained bandwidth of one GDDR5 controller at the calibration clock.
MC_BANDWIDTH_BYTES_PER_SEC_AT_2750 = 19.0e9
CALIBRATION_MEM_MHZ = 2750.0

#: Eq.-1-form latency coefficients (~250-300 ns uncontended line fill,
#: the KNC L2-miss-to-GDDR5 latency class).
LAT_CORE_CYCLES = 130.0
LAT_MESH_CYCLES_PER_HOP = 6.0
LAT_MEM_CYCLES = 275.0

#: ring router cost and link width (64-byte-wide data ring).
RING_HOP_CYCLES = 2.0
RING_LINK_BYTES_PER_CYCLE = 64.0

_CACHE = CacheGeometry(line_bytes=64, l1_bytes=32 * 1024, l2_bytes=512 * 1024, assoc=8)

#: effective per-core timing at full 4-way SMT occupancy (see module doc).
PHI_TIMING = CoreTimingParams(
    base_cycles_per_nnz=3.0,
    row_overhead_cycles=6.0,
    l2_hit_cycles=24.0,
    call_overhead_cycles=5000.0,
)

#: SE10P-class base part: 61 cores @ 1100 MHz, GDDR5 5.5 GT/s.
PHI_CONF0 = UniformMachineConfig(
    name="conf0", core_mhz=1100.0, mesh_mhz=1100.0, mem_mhz=2750.0, power_watts=245.0
)
#: 7120-class turbo part: 1238 MHz cores, same memory clock.
PHI_CONF1 = UniformMachineConfig(
    name="conf1", core_mhz=1238.0, mesh_mhz=1238.0, mem_mhz=2750.0, power_watts=300.0
)

PHI_PRESETS = {"conf0": PHI_CONF0, "conf1": PHI_CONF1}


def _mc_stops() -> tuple:
    return tuple(round(N_CORES * k / N_MCS) for k in range(N_MCS))


class XeonPhiMachine(MachineModel):
    """61-core Knights Corner: bidirectional ring, 8 GDDR5 MCs."""

    machine_id = "xeonphi-61"
    display_name = "Intel Xeon Phi KNC (61 cores, bidirectional ring, 8 GDDR5 MCs)"
    comparison_label = "Xeon Phi"
    source = "Saule, Kaya & Catalyurek, arXiv:1302.1078"
    supported_modes = ("model", "predict")

    def __init__(self) -> None:
        self._topology = ring_topology(N_CORES, _mc_stops())

    @property
    def topology(self) -> TableTopology:
        return self._topology

    @property
    def cache(self) -> CacheGeometry:
        return _CACHE

    @property
    def timing(self) -> CoreTimingParams:
        return PHI_TIMING

    @property
    def presets(self) -> Mapping[str, UniformMachineConfig]:
        return PHI_PRESETS

    def memory_system(
        self,
        config: UniformMachineConfig,
        topology: Optional[TableTopology] = None,
    ) -> TableMemorySystem:
        return TableMemorySystem(
            topology or self._topology,
            mem_mhz=config.mem_mhz,
            line_bytes=_CACHE.line_bytes,
            bandwidth_per_mc=MC_BANDWIDTH_BYTES_PER_SEC_AT_2750,
            calibration_mem_mhz=CALIBRATION_MEM_MHZ,
            lat_core_cycles=LAT_CORE_CYCLES,
            lat_mesh_cycles_per_hop=LAT_MESH_CYCLES_PER_HOP,
            lat_mem_cycles=LAT_MEM_CYCLES,
            machine_id=self.machine_id,
        )

    def interconnect(
        self,
        config: UniformMachineConfig,
        topology: Optional[TableTopology] = None,
        tracer: Optional[Any] = None,
    ) -> HopInterconnect:
        return HopInterconnect(
            topology or self._topology,
            mesh_mhz=config.mesh_mhz,
            hop_cycles=RING_HOP_CYCLES,
            link_bytes_per_cycle=RING_LINK_BYTES_PER_CYCLE,
        )

    def aggregate_bandwidth(self, config: UniformMachineConfig) -> float:
        """Aggregate sustained memory bandwidth (bytes/s) at ``config``."""
        mem = self.memory_system(config)
        return sum(mc.bandwidth for mc in mem.controllers)

    def params(self) -> MachineParams:
        return MachineParams(
            machine_id=self.machine_id,
            display_name=self.display_name,
            n_cores=N_CORES,
            n_controllers=N_MCS,
            cache=_CACHE,
            interconnect="bidirectional ring, 8 interleaved GDDR5 MCs",
            source=self.source,
        )
