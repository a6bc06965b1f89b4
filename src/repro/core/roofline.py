"""Roofline model of the SCC itself.

The Fig. 10 comparison uses rooflines for the *competitor* systems;
this module builds the same model for the SCC so the suite's matrices
can be located against the chip's own ceilings (the analysis style of
Williams et al., whose optimization work the paper discusses in
Sec. V):

- compute ceiling: one FP multiply-add pair every
  ``base_cycles_per_nnz`` on each of the P54C cores in play;
- bandwidth ceiling: the aggregate sustained bandwidth of the memory
  controllers actually reachable from the mapped cores;
- per-matrix **arithmetic intensity** (flops per byte of memory
  traffic) from the same access characterization the timing model uses.

``attainable_gflops`` is the classic ``min(peak, AI * BW)`` and
:func:`locate_matrix` reports where a matrix sits and which ceiling
binds it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..machine.sccmachine import SCCMachine
from ..scc.chip import CONF0, SCCConfig
from ..scc.params import CACHE_LINE_BYTES, DEFAULT_TIMING, P54CTimingParams
from ..scc.topology import SCCTopology
from ..sparse.fastpath import batch_access_summaries, batch_traces
from .trace import UETrace

__all__ = ["SCCRoofline", "MatrixPoint", "locate_matrix"]


@dataclass(frozen=True)
class MatrixPoint:
    """One matrix located on the roofline."""

    name: str
    arithmetic_intensity: float   # flops / byte of memory traffic
    attainable_gflops: float
    bound: str                    # 'memory' or 'compute'


class SCCRoofline:
    """Compute/bandwidth ceilings of an SCC job."""

    def __init__(
        self,
        config: SCCConfig = CONF0,
        core_map: Sequence[int] = tuple(range(48)),
        topology: SCCTopology | None = None,
        timing: P54CTimingParams = DEFAULT_TIMING,
    ) -> None:
        if not core_map:
            raise ValueError("core_map must name at least one core")
        self.config = config
        self.core_map = list(core_map)
        self.topology = topology or SCCTopology()
        self.timing = timing
        self.mem = SCCMachine().memory_system(config, self.topology)

    @property
    def peak_gflops(self) -> float:
        """Kernel-attainable compute ceiling of the mapped cores.

        2 flops per ``base_cycles_per_nnz`` — the SpMV inner loop's
        issue-limited rate, not the marketing FP peak.
        """
        total = 0.0
        for core in self.core_map:
            mhz = self.config.core_mhz_of_core(core)
            total += 2.0 * mhz * 1e6 / self.timing.base_cycles_per_nnz
        return total / 1e9

    @property
    def bandwidth_gbs(self) -> float:
        """Aggregate sustained bandwidth of the controllers in use."""
        mcs = {self.topology.mc_index_of_core(c) for c in self.core_map}
        return sum(self.mem.controllers[i].bandwidth for i in mcs) / 1e9

    @property
    def ridge_point(self) -> float:
        """Arithmetic intensity where the two ceilings meet (flops/byte)."""
        return self.peak_gflops / self.bandwidth_gbs

    def attainable_gflops(self, arithmetic_intensity: float) -> float:
        """min(compute ceiling, AI * bandwidth ceiling)."""
        if arithmetic_intensity <= 0:
            raise ValueError(
                f"arithmetic intensity must be positive, got {arithmetic_intensity}"
            )
        return min(self.peak_gflops, arithmetic_intensity * self.bandwidth_gbs)


def matrix_arithmetic_intensity(
    traces: Sequence[UETrace],
    iterations: int = 1,
    l2_enabled: bool = True,
) -> float:
    """Flops per byte of memory traffic for a partitioned matrix.

    Uses the same per-UE summaries as the timing model, so the roofline
    and the simulator agree on what 'traffic' means.
    """
    s = batch_access_summaries(batch_traces(traces), iterations, l2_enabled=l2_enabled)
    flops = 2 * sum(s.nnz.tolist()) * iterations
    bytes_moved = 0.0
    for lines in s.l2_misses.tolist():  # summed in UE order: the intensity is pinned bitwise
        bytes_moved += lines * CACHE_LINE_BYTES
    if bytes_moved <= 0:
        return float("inf")
    return flops / bytes_moved


def locate_matrix(
    name: str,
    traces: Sequence[UETrace],
    roofline: SCCRoofline,
    iterations: int = 1,
) -> MatrixPoint:
    """Place one partitioned matrix on the roofline."""
    ai = matrix_arithmetic_intensity(traces, iterations)
    if ai == float("inf"):
        return MatrixPoint(name, ai, roofline.peak_gflops, "compute")
    attainable = roofline.attainable_gflops(ai)
    bound = "compute" if ai >= roofline.ridge_point else "memory"
    return MatrixPoint(name, ai, attainable, bound)
