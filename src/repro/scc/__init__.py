"""Architecture model of the Intel Single-chip Cloud Computer (SCC).

Subpackages model the pieces of the chip the paper's study exercises:

- :mod:`~repro.scc.topology` — 6x4 tile mesh, core numbering, memory
  controllers, hop distances.
- :mod:`~repro.scc.mesh` — XY routing, link loads, message timing.
- :mod:`~repro.scc.cache` — exact 4-way pseudo-LRU write-back caches.
- :mod:`~repro.scc.vecreplay` — set-parallel vectorized exact replay,
  bitwise-identical to :mod:`~repro.scc.cache` at full Table-I scale.
- :mod:`~repro.scc.locality` — vectorized reuse/footprint/miss models.
- :mod:`~repro.scc.memory` — Eq. 1 latency and controller bandwidth.
- :mod:`~repro.scc.mcqueue` — the FIFO controller queue ablation A3
  checks the bandwidth-sharing closed form against.
- :mod:`~repro.scc.core_model` — per-core access counts (`AccessSummary`).
- :mod:`~repro.scc.power` / :mod:`~repro.scc.chip` — frequency menus,
  configuration presets (conf0/1/2) and the calibrated power model.
"""

from .chip import CONF0, CONF1, CONF2, PRESETS, SCCConfig
from .cache import Cache, CacheHierarchy, CacheStats
from .core_model import AccessSummary, core_flops
from .locality import (
    FootprintCurve,
    MissRatioCurve,
    ReuseProfile,
    footprint_curve,
    line_links,
    lines_of_addresses,
    miss_ratio_curve,
    reuse_profile,
    reuse_times,
    window_profile,
)
from .mcqueue import CoreWorkload, simulate_controller
from .memory import MemoryController, MemorySystem, memory_read_latency
from .mesh import MeshNetwork, xy_route
from .params import (
    CACHE_ASSOC,
    CACHE_LINE_BYTES,
    CORE_FREQS_MHZ,
    DEFAULT_TIMING,
    L1D_BYTES,
    L2_BYTES,
    MEM_FREQS_MHZ,
    MESH_FREQS_MHZ,
    P54CTimingParams,
)
from .power import chip_power, core_voltage, mesh_voltage
from .tracegen import (
    CHUNK_ACCESSES,
    DEFAULT_LAYOUT,
    REPLAY_ENGINES,
    TraceCounts,
    TraceLayout,
    replay_trace,
    spmv_address_trace,
    spmv_address_trace_chunks,
)
from .vecreplay import TraceSchedule, VectorCache, VectorCacheHierarchy, compile_schedule
from .topology import CORES_PER_TILE, GRID_X, GRID_Y, N_CORES, N_TILES, SCCTopology, Tile

__all__ = [
    "CONF0",
    "CONF1",
    "CONF2",
    "PRESETS",
    "SCCConfig",
    "Cache",
    "CacheHierarchy",
    "CacheStats",
    "AccessSummary",
    "core_flops",
    "FootprintCurve",
    "MissRatioCurve",
    "ReuseProfile",
    "footprint_curve",
    "line_links",
    "lines_of_addresses",
    "miss_ratio_curve",
    "reuse_profile",
    "reuse_times",
    "window_profile",
    "CoreWorkload",
    "simulate_controller",
    "MemoryController",
    "MemorySystem",
    "memory_read_latency",
    "MeshNetwork",
    "xy_route",
    "CACHE_ASSOC",
    "CACHE_LINE_BYTES",
    "CORE_FREQS_MHZ",
    "DEFAULT_TIMING",
    "L1D_BYTES",
    "L2_BYTES",
    "MEM_FREQS_MHZ",
    "MESH_FREQS_MHZ",
    "P54CTimingParams",
    "chip_power",
    "core_voltage",
    "mesh_voltage",
    "CORES_PER_TILE",
    "GRID_X",
    "GRID_Y",
    "N_CORES",
    "N_TILES",
    "SCCTopology",
    "Tile",
    "CHUNK_ACCESSES",
    "DEFAULT_LAYOUT",
    "REPLAY_ENGINES",
    "TraceCounts",
    "TraceLayout",
    "replay_trace",
    "spmv_address_trace",
    "spmv_address_trace_chunks",
    "TraceSchedule",
    "VectorCache",
    "VectorCacheHierarchy",
    "compile_schedule",
]
