"""2D mesh network model with deterministic XY routing.

The SCC mesh routes packets first along x, then along y (paper Sec. II).
This module provides route enumeration, per-link load accounting (used
to reason about congestion in the mapping study) and message timing for
the RCCE layer: a message of ``size`` bytes over ``h`` hops costs

``t = h * hop_cycles / f_mesh + size / link_bandwidth(f_mesh)``

with the 4-cycle router crossing from the SCC EAS.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, Iterable, List, Optional, Tuple

from .topology import GRID_X, GRID_Y, SCCTopology

__all__ = ["xy_route", "Link", "MeshNetwork"]

Coord = Tuple[int, int]
Link = Tuple[Coord, Coord]

#: router pipeline depth per crossing (SCC EAS: 4 mesh cycles).
ROUTER_CYCLES = 4
#: mesh link width: 16 bytes per mesh cycle (128-bit links).
LINK_BYTES_PER_CYCLE = 16


def xy_route(src: Coord, dst: Coord) -> List[Coord]:
    """Return the XY route from ``src`` to ``dst``, inclusive of both.

    X is routed to completion before Y, matching the chip's static
    dimension-ordered scheme.
    """
    for coord in (src, dst):
        x, y = coord
        if not (0 <= x < GRID_X and 0 <= y < GRID_Y):
            raise ValueError(f"coordinate {coord} outside {GRID_X}x{GRID_Y} mesh")
    path = [src]
    x, y = src
    step_x = 1 if dst[0] > x else -1
    while x != dst[0]:
        x += step_x
        path.append((x, y))
    step_y = 1 if dst[1] > y else -1
    while y != dst[1]:
        y += step_y
        path.append((x, y))
    return path


class MeshNetwork:
    """Link-load accounting and message timing over the SCC mesh."""

    #: header seconds of each (src core, dst core) pair, one table per
    #: (mesh clock, topology class), shared by every mesh with that key
    #: (a topology's instances are interchangeable).  It is keyed by
    #: core pair, never by payload size, so it holds at most one entry
    #: per pair.
    _shared_header_tables: Dict[Tuple[float, type], Dict[Tuple[int, int], float]] = {}

    def __init__(
        self,
        topology: SCCTopology | None = None,
        mesh_mhz: float = 800.0,
        tracer: Optional[Any] = None,
    ) -> None:
        if mesh_mhz <= 0:
            raise ValueError(f"mesh_mhz must be positive, got {mesh_mhz}")
        self.topology = topology or SCCTopology()
        self.mesh_mhz = mesh_mhz
        self._link_loads: Counter[Link] = Counter()
        #: optional :class:`repro.obs.Tracer`: transfers additionally
        #: feed per-link byte/flit counters in its metrics registry.
        self.tracer = tracer
        self._core_headers = MeshNetwork._shared_header_tables.setdefault(
            (mesh_mhz, type(self.topology)), {}
        )

    @property
    def cycle_time(self) -> float:
        """Seconds per mesh cycle."""
        return 1.0 / (self.mesh_mhz * 1e6)

    @property
    def link_bandwidth(self) -> float:
        """Bytes/second over one mesh link."""
        return LINK_BYTES_PER_CYCLE * self.mesh_mhz * 1e6

    # -- routing / loads ---------------------------------------------------

    @staticmethod
    def links_of(path: List[Coord]) -> List[Link]:
        """Directed (a, b) link pairs along a route."""
        return [(path[i], path[i + 1]) for i in range(len(path) - 1)]

    def record_transfer(self, src: Coord, dst: Coord, size_bytes: int = 1) -> List[Link]:
        """Account ``size_bytes`` on every link of the XY route."""
        links = self.links_of(xy_route(src, dst))
        for link in links:
            self._link_loads[link] += size_bytes
        tr = self.tracer
        if tr:
            # One flit = one link-width beat (16 bytes); a 0-byte control
            # message still occupies the route for its header flit.
            flits = max(1, -(-size_bytes // LINK_BYTES_PER_CYCLE))
            for (ax, ay), (bx, by) in links:
                label = f"{ax},{ay}->{bx},{by}"
                tr.metrics.counter("mesh.link_bytes", link=label).inc(size_bytes)
                tr.metrics.counter("mesh.link_flits", link=label).inc(flits)
        return links

    def link_loads(self) -> Dict[Link, int]:
        """Accumulated bytes per directed link."""
        return dict(self._link_loads)

    def max_link_load(self) -> int:
        """Heaviest accumulated link load (0 when idle)."""
        return max(self._link_loads.values(), default=0)

    def reset_loads(self) -> None:
        """Clear all link-load accounting."""
        self._link_loads.clear()

    # -- timing --------------------------------------------------------------

    def message_time(self, src: Coord, dst: Coord, size_bytes: int) -> float:
        """Latency of a ``size_bytes`` message from src to dst (seconds).

        Store-and-forward pipeline: per-hop router latency plus
        serialization of the payload on the narrowest (only) link class.
        Local transfers (src == dst) still pay one router crossing: the
        MPB sits behind the tile's router.
        """
        return self._with_payload(self._header_time(src, dst), size_bytes)

    def core_message_time(self, src_core: int, dst_core: int, size_bytes: int) -> float:
        """message_time between two cores' tiles.

        The pair's header comes from the shared per-pair table; the sum
        is the one :meth:`message_time` forms.
        """
        header = self._core_headers.get((src_core, dst_core))
        if header is None:
            header = self._core_headers[(src_core, dst_core)] = self._header_time(
                *self._core_coords(src_core, dst_core)
            )
        return self._with_payload(header, size_bytes)

    def _header_time(self, src: Coord, dst: Coord) -> float:
        """Router latency of a message from src to dst (at least one hop)."""
        return max(1, self.topology.hops_between(src, dst)) * ROUTER_CYCLES * self.cycle_time

    def _with_payload(self, header: float, size_bytes: int) -> float:
        """``header`` plus the payload's serialization."""
        if size_bytes < 0:
            raise ValueError(f"size_bytes must be >= 0, got {size_bytes}")
        return header + size_bytes / self.link_bandwidth

    def _core_coords(self, src_core: int, dst_core: int) -> Tuple[Coord, Coord]:
        """Mesh coordinates of two cores' tiles."""
        ts = self.topology.tile_of_core(src_core)
        td = self.topology.tile_of_core(dst_core)
        return (ts.x, ts.y), (td.x, td.y)

    def routes_through(self, coord: Coord, pairs: Iterable[Tuple[Coord, Coord]]) -> int:
        """How many of the given (src, dst) routes traverse ``coord``."""
        count = 0
        for src, dst in pairs:
            if coord in xy_route(src, dst):
                count += 1
        return count
