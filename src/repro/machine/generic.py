"""Reusable table-driven substrates shared by every machine in the zoo.

- :class:`TableTopology` — topology defined by per-core (MC index,
  hops-to-MC) tables plus a core-to-core hop function (the SCC keeps
  its coordinate-based :class:`repro.scc.topology.SCCTopology`, which
  answers the same queries);
- :func:`ring_topology` / :func:`panel_topology` — builders for the
  Xeon Phi ring and the FT-2000+ NUMA panels;
- :class:`TableMemorySystem` — per-MC bandwidth + the Eq.-1-form
  latency coefficients, the one memory-system class all three machines
  use;
- :class:`HopInterconnect` — point-to-point message timing from the
  hop function (enough for the analytic barrier recurrence).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .base import Topology

__all__ = [
    "TableTopology",
    "ring_topology",
    "panel_topology",
    "BandwidthController",
    "TableMemorySystem",
    "HopInterconnect",
]


class TableTopology:
    """A chip layout captured as per-core lookup tables.

    Exposes the :class:`repro.machine.base.Topology` surface — MC
    assignment, hop distances, distance-sorted core order — without
    committing to any physical coordinate system.  Instances are
    stateless and safely shared across experiments.
    """

    def __init__(
        self,
        n_cores: int,
        mc_index: Sequence[int],
        hops_to_mc: Sequence[int],
        core_hops: Callable[[int, int], int],
        n_controllers: Optional[int] = None,
    ) -> None:
        if n_cores <= 0:
            raise ValueError(f"n_cores must be positive, got {n_cores}")
        if len(mc_index) != n_cores or len(hops_to_mc) != n_cores:
            raise ValueError("mc_index and hops_to_mc must have one entry per core")
        self._n_cores = n_cores
        self._mc_index = tuple(int(i) for i in mc_index)
        self._hops = tuple(int(h) for h in hops_to_mc)
        self._core_hops = core_hops
        self._n_controllers = (
            n_controllers if n_controllers is not None else max(self._mc_index) + 1
        )
        # stable distance order: (hops to MC, core id) — same tie-break
        # rule as SCCTopology.cores_by_distance.
        self._by_distance = tuple(
            sorted(range(n_cores), key=lambda c: (self._hops[c], c))
        )

    @property
    def n_cores(self) -> int:
        return self._n_cores

    @property
    def n_controllers(self) -> int:
        return self._n_controllers

    def _check_core(self, core: int) -> None:
        if not 0 <= core < self._n_cores:
            raise ValueError(f"core must be in [0, {self._n_cores}), got {core}")

    def mc_index_of_core(self, core: int) -> int:
        """Index of the memory controller serving ``core``."""
        self._check_core(core)
        return self._mc_index[core]

    def hops_to_mc(self, core: int) -> int:
        """Interconnect hops from ``core`` to its memory controller."""
        self._check_core(core)
        return self._hops[core]

    def hops_between_cores(self, a: int, b: int) -> int:
        """Interconnect hops between two cores."""
        self._check_core(a)
        self._check_core(b)
        return self._core_hops(a, b)

    def cores_by_distance(self) -> Tuple[int, ...]:
        """All cores sorted by (hops to MC, core id)."""
        return self._by_distance

    def cores_at_distance(self, hops: int) -> Tuple[int, ...]:
        """Cores exactly ``hops`` from their memory controller."""
        return tuple(c for c in range(self._n_cores) if self._hops[c] == hops)

    def cores_of_controller(self, mc_index: int) -> Tuple[int, ...]:
        """Cores served by controller ``mc_index``."""
        return tuple(c for c in range(self._n_cores) if self._mc_index[c] == mc_index)

    def distance_histogram(self) -> Dict[int, int]:
        """Map hop distance -> number of cores at that distance."""
        hist: Dict[int, int] = {}
        for h in self._hops:
            hist[h] = hist.get(h, 0) + 1
        return dict(sorted(hist.items()))


def ring_topology(n_cores: int, mc_stops: Sequence[int]) -> TableTopology:
    """Cores on a bidirectional ring with MCs at given ring stops.

    Each core is served by its nearest controller (ties to the lower
    MC index), the Xeon Phi's interleaved-GDDR5 first-order behavior.
    Hop distance is the shorter way around the ring.
    """

    stops = tuple(int(s) for s in mc_stops)
    if not stops:
        raise ValueError("need at least one MC stop")

    def ring_dist(a: int, b: int) -> int:
        d = abs(a - b) % n_cores
        return min(d, n_cores - d)

    mc_index: List[int] = []
    hops: List[int] = []
    for core in range(n_cores):
        dist, idx = min((ring_dist(core, stop), i) for i, stop in enumerate(stops))
        mc_index.append(idx)
        hops.append(dist)
    return TableTopology(n_cores, mc_index, hops, ring_dist, n_controllers=len(stops))


def panel_topology(
    n_panels: int,
    cores_per_panel: int,
    panel_grid_x: int,
    inter_panel_hop_cost: int = 2,
) -> TableTopology:
    """NUMA-panel layout: panels on a 2D grid, one MC per panel.

    Within a panel, core slots pair up along a short local spine, so a
    slot ``q`` sits ``q // 2`` hops from the panel's controller (the
    FT-2000+ routing cells).  Crossing panels costs the Manhattan
    distance between panel grid coordinates times
    ``inter_panel_hop_cost`` (NUMA mesh hops are wider/slower than the
    intra-panel spine).
    """

    n_cores = n_panels * cores_per_panel
    if n_panels % panel_grid_x != 0:
        raise ValueError("n_panels must tile the panel grid exactly")

    def panel_coord(panel: int) -> Tuple[int, int]:
        return panel % panel_grid_x, panel // panel_grid_x

    def core_hops(a: int, b: int) -> int:
        pa, qa = divmod(a, cores_per_panel)
        pb, qb = divmod(b, cores_per_panel)
        intra = abs(qa // 2 - qb // 2)
        if pa == pb:
            return intra
        (xa, ya), (xb, yb) = panel_coord(pa), panel_coord(pb)
        manhattan = abs(xa - xb) + abs(ya - yb)
        return qa // 2 + qb // 2 + manhattan * inter_panel_hop_cost

    mc_index = [core // cores_per_panel for core in range(n_cores)]
    hops = [(core % cores_per_panel) // 2 for core in range(n_cores)]
    return TableTopology(n_cores, mc_index, hops, core_hops, n_controllers=n_panels)


@dataclass(frozen=True)
class BandwidthController:
    """One memory controller: sustained bandwidth at the current clock."""

    index: int
    bandwidth: float  #: bytes/second


@dataclass(frozen=True, eq=False)
class TableMemorySystem:
    """Memory system of a machine at one configuration, as plain values.

    The solvers read ``mem_mhz``, ``line_bytes``, ``topology``,
    ``controllers`` (with ``.bandwidth``) and the three Eq.-1-form
    latency coefficients; the latency itself is computed in one place,
    :func:`repro.sparse.fastpath.memory_latencies`.  Bandwidth scales
    linearly with the memory clock around the calibration point.

    Instances are immutable values compared by identity: derive a
    variant with :func:`dataclasses.replace` (e.g. an ablation that
    zeroes ``lat_mesh_cycles_per_hop``), and the solver memos, which
    key on the object, never confuse the two.
    """

    topology: Topology
    mem_mhz: float
    line_bytes: int
    bandwidth_per_mc: float
    calibration_mem_mhz: float
    lat_core_cycles: float
    lat_mesh_cycles_per_hop: float
    lat_mem_cycles: float
    controllers: Tuple[BandwidthController, ...] = field(init=False)

    def __post_init__(self) -> None:
        if self.mem_mhz <= 0:
            raise ValueError(f"mem_mhz must be positive, got {self.mem_mhz}")
        scale = float(self.mem_mhz) / float(self.calibration_mem_mhz)
        controllers = tuple(
            BandwidthController(i, self.bandwidth_per_mc * scale)
            for i in range(self.topology.n_controllers)
        )
        object.__setattr__(self, "controllers", controllers)


class HopInterconnect:
    """Point-to-point message timing over a hop-distance function.

    ``core_message_time`` mirrors the SCC mesh form: per-hop router
    cycles plus serialization at the link width, all at the
    interconnect clock.  Enough surface for
    :func:`repro.core.timing.resolve_barrier_schedule`.
    """

    def __init__(
        self,
        topology: TableTopology,
        mesh_mhz: float,
        hop_cycles: float,
        link_bytes_per_cycle: float,
    ) -> None:
        self.topology = topology
        self.mesh_mhz = float(mesh_mhz)
        self.hop_cycles = float(hop_cycles)
        self.link_bytes_per_cycle = float(link_bytes_per_cycle)

    @property
    def cycle_time(self) -> float:
        return 1.0 / (self.mesh_mhz * 1e6)

    @property
    def link_bandwidth(self) -> float:
        """Bytes/second through one link."""
        return self.link_bytes_per_cycle * self.mesh_mhz * 1e6

    def core_message_time(self, src_core: int, dst_core: int, size_bytes: int) -> float:
        """Seconds to move ``size_bytes`` between two cores."""
        hops = max(1, self.topology.hops_between_cores(src_core, dst_core))
        return hops * self.hop_cycles * self.cycle_time + size_bytes / self.link_bandwidth
