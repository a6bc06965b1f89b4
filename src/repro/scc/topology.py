"""SCC chip topology: tiles, cores, memory controllers, hop distances.

The SCC arranges 48 P54C cores as 24 dual-core tiles on a 6 (x) by
4 (y) mesh.  Four DDR3 memory controllers hang off the routers of the
edge tiles at (x, y) = (0, 0), (5, 0), (0, 2) and (5, 2).  The chip is
partitioned into quadrants of 3x2 tiles (12 cores); all private-memory
traffic of a quadrant goes through its quadrant's controller.

Core numbering follows the chip: tile ``t`` (row-major, ``t = y*6 + x``)
holds cores ``2t`` and ``2t+1``.  The paper's example — "the lower left
quadrant contains cores 0-5 and 12-17" — is reproduced by
:meth:`SCCTopology.cores_of_quadrant`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Tuple

__all__ = ["GRID_X", "GRID_Y", "N_TILES", "CORES_PER_TILE", "N_CORES", "Tile", "SCCTopology"]

GRID_X = 6
GRID_Y = 4
N_TILES = GRID_X * GRID_Y
CORES_PER_TILE = 2
N_CORES = N_TILES * CORES_PER_TILE

# Memory-controller router coordinates, one per quadrant.
_MC_COORDS: Tuple[Tuple[int, int], ...] = ((0, 0), (5, 0), (0, 2), (5, 2))


@dataclass(frozen=True)
class Tile:
    """One dual-core tile at mesh coordinate (x, y)."""

    tile_id: int
    x: int
    y: int

    @property
    def cores(self) -> Tuple[int, int]:
        """The tile's two core ids (2t, 2t+1)."""
        return (2 * self.tile_id, 2 * self.tile_id + 1)


class SCCTopology:
    """Immutable description of the 48-core chip layout.

    All coordinate/percentile queries are O(1); the object is cheap and
    stateless, so a module-level singleton is fine (``SCCTopology()``
    instances are interchangeable).
    """

    def __init__(self) -> None:
        self._tiles: List[Tile] = [
            Tile(tile_id=y * GRID_X + x, x=x, y=y)
            for y in range(GRID_Y)
            for x in range(GRID_X)
        ]
        self._mc_coords = _MC_COORDS

    # -- basic lookups -------------------------------------------------

    @property
    def tiles(self) -> Tuple[Tile, ...]:
        """All 24 tiles in row-major order."""
        return tuple(self._tiles)

    @property
    def n_cores(self) -> int:
        """Total cores on the chip (48)."""
        return N_CORES

    @property
    def mc_coords(self) -> Tuple[Tuple[int, int], ...]:
        """Router coordinates of the four memory controllers."""
        return self._mc_coords

    @property
    def n_controllers(self) -> int:
        """Number of memory controllers (4, one per quadrant)."""
        return len(self._mc_coords)

    def tile(self, tile_id: int) -> Tile:
        """Tile by id (row-major)."""
        if not 0 <= tile_id < N_TILES:
            raise ValueError(f"tile_id {tile_id} out of range [0, {N_TILES})")
        return self._tiles[tile_id]

    def tile_at(self, x: int, y: int) -> Tile:
        """Tile at mesh coordinate (x, y)."""
        if not (0 <= x < GRID_X and 0 <= y < GRID_Y):
            raise ValueError(f"coordinate ({x}, {y}) outside {GRID_X}x{GRID_Y} mesh")
        return self._tiles[y * GRID_X + x]

    def tile_of_core(self, core: int) -> Tile:
        """The tile hosting a core."""
        if not 0 <= core < N_CORES:
            raise ValueError(f"core {core} out of range [0, {N_CORES})")
        return self._tiles[core // CORES_PER_TILE]

    # -- quadrants and memory controllers --------------------------------

    def quadrant_of_tile(self, tile: Tile) -> int:
        """Quadrant index 0..3 matching the MC order in ``mc_coords``."""
        qx = 0 if tile.x < GRID_X // 2 else 1
        qy = 0 if tile.y < GRID_Y // 2 else 1
        return qy * 2 + qx

    def quadrant_of_core(self, core: int) -> int:
        """Quadrant index (0..3) of a core's tile."""
        return self.quadrant_of_tile(self.tile_of_core(core))

    def mc_coord_of_core(self, core: int) -> Tuple[int, int]:
        """Router coordinate of the MC serving this core's private memory."""
        return self._mc_coords[self.quadrant_of_core(core)]

    def mc_index_of_core(self, core: int) -> int:
        """Index of the MC serving this core (== quadrant)."""
        return self.quadrant_of_core(core)

    def cores_of_quadrant(self, quadrant: int) -> Tuple[int, ...]:
        """The 12 cores whose private memory lives behind one MC."""
        if not 0 <= quadrant < 4:
            raise ValueError(f"quadrant {quadrant} out of range [0, 4)")
        return tuple(
            c
            for t in self._tiles
            if self.quadrant_of_tile(t) == quadrant
            for c in t.cores
        )

    # -- distances -------------------------------------------------------

    def hops_between(self, a: Tuple[int, int], b: Tuple[int, int]) -> int:
        """Mesh hop count under XY routing (Manhattan distance)."""
        return abs(a[0] - b[0]) + abs(a[1] - b[1])

    def hops_to_mc(self, core: int) -> int:
        """Hops from a core's tile router to its private-memory MC."""
        t = self.tile_of_core(core)
        return self.hops_between((t.x, t.y), self.mc_coord_of_core(core))

    @lru_cache(maxsize=None)
    def cores_by_distance(self) -> Tuple[int, ...]:
        """All 48 cores ordered by (hops to their MC, core id).

        This is the order the paper's *distance reduction* mapping draws
        cores from: nearest-to-memory first.
        """
        return tuple(sorted(range(N_CORES), key=lambda c: (self.hops_to_mc(c), c)))

    @lru_cache(maxsize=None)
    def cores_at_distance(self, hops: int) -> Tuple[int, ...]:
        """Cores whose private-memory MC is exactly ``hops`` away."""
        return tuple(c for c in range(N_CORES) if self.hops_to_mc(c) == hops)

    def distance_histogram(self) -> Dict[int, int]:
        """Map hop-count -> number of cores at that distance."""
        hist: Dict[int, int] = {}
        for c in range(N_CORES):
            h = self.hops_to_mc(c)
            hist[h] = hist.get(h, 0) + 1
        return hist

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SCCTopology {GRID_X}x{GRID_Y} tiles, {N_CORES} cores, 4 MCs>"
