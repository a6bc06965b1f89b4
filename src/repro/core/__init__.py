"""The paper's study: mappings, experiments, metrics, comparisons.

- :mod:`~repro.core.mapping` — standard vs distance-reduction UE maps.
- :mod:`~repro.core.trace` — per-UE SpMV access characterization.
- :mod:`~repro.core.timing` — contention-aware per-core time solver.
- :mod:`~repro.core.experiment` — :class:`SpMVExperiment`, the runner.
- :mod:`~repro.core.metrics` — suite aggregates and speedups.
- :mod:`~repro.core.comparison` — Fig. 10 architecture rooflines.
- :mod:`~repro.core.report` — text rendering of tables/figures.
- :mod:`~repro.core.figures` — scriptable generation of every paper artifact.
- :mod:`~repro.core.roofline` — the SCC's own roofline model.
- :mod:`~repro.core.campaign` — persistent, resumable experiment sweeps.
- :mod:`~repro.core.supervise` — the sweep executor: ordered,
  self-healing fork-pool sharding.
- :mod:`~repro.core.diagrams` — ASCII renderings of Figs. 1/2/4.
- :mod:`~repro.core.blocked` — BCSR timing on the SCC model.
"""

from .blocked import BCSRTimingResult, run_bcsr_timing
from .campaign import Campaign, CampaignContext, CampaignPoint, run_campaign_point
from .supervise import (
    QuarantinedTaskError,
    SupervisePolicy,
    TaskOutcome,
    supervised_iter_ordered,
    supervised_parallel_map,
)
from .diagrams import chip_diagram, csr_example, mapping_diagram
from .comparison import COMPARISON_SYSTEMS, ArchitectureModel, comparison_table
from .experiment import (
    DEFAULT_ITERATIONS,
    ExperimentResult,
    SpMVExperiment,
)
from .figures import DEFAULT_MODE, suite_experiments
from .roofline import MatrixPoint, SCCRoofline, locate_matrix
from .sensitivity import EffectSet, measure_effects, sensitivity_sweep
from .mapping import (
    MAPPINGS,
    distance_reduction_mapping,
    get_mapping,
    single_core_at_distance,
    standard_mapping,
)
from .metrics import (
    average_gflops,
    average_mflops_per_watt,
    geomean_gflops,
    parallel_efficiency,
    speedup,
    speedup_series,
)
from .report import banner, format_series, format_table
from .timing import (
    CoreTiming,
    barrier_exit_times,
    barrier_schedule,
    resolve_barrier_schedule,
    solve_core_times,
    solve_core_times_batched,
)
from .trace import UETrace, access_summary, characterize_partition

__all__ = [
    "BCSRTimingResult",
    "run_bcsr_timing",
    "Campaign",
    "CampaignContext",
    "CampaignPoint",
    "run_campaign_point",
    "QuarantinedTaskError",
    "SupervisePolicy",
    "TaskOutcome",
    "supervised_iter_ordered",
    "supervised_parallel_map",
    "DEFAULT_MODE",
    "chip_diagram",
    "csr_example",
    "mapping_diagram",
    "COMPARISON_SYSTEMS",
    "ArchitectureModel",
    "comparison_table",
    "DEFAULT_ITERATIONS",
    "ExperimentResult",
    "SpMVExperiment",
    "suite_experiments",
    "MatrixPoint",
    "SCCRoofline",
    "locate_matrix",
    "EffectSet",
    "measure_effects",
    "sensitivity_sweep",
    "MAPPINGS",
    "distance_reduction_mapping",
    "get_mapping",
    "single_core_at_distance",
    "standard_mapping",
    "average_gflops",
    "average_mflops_per_watt",
    "geomean_gflops",
    "parallel_efficiency",
    "speedup",
    "speedup_series",
    "banner",
    "format_series",
    "format_table",
    "CoreTiming",
    "barrier_exit_times",
    "barrier_schedule",
    "resolve_barrier_schedule",
    "solve_core_times",
    "solve_core_times_batched",
    "UETrace",
    "access_summary",
    "characterize_partition",
]
