"""The SpMV experiment runner: one matrix on a modeled many-core.

:class:`SpMVExperiment` wires every substrate of one machine together
(the paper's SCC by default; any :mod:`repro.machine` zoo member via
``machine=``).  For a run it

1. partitions the matrix row-wise with balanced nonzeros (the paper's
   scheme) for the requested UE count;
2. characterizes each UE's access stream (:mod:`repro.core.trace`),
   memoizing per UE count — the characterization is mapping- and
   frequency-independent;
3. folds traces into batched access summaries for the requested
   kernel variant / iteration count / L2 switch;
4. solves per-core times under MC contention
   (:mod:`repro.core.timing`);
5. replays the job on the RCCE runtime — each UE computes for its
   solved duration between barriers — so the reported makespan includes
   synchronization cost, and optionally executes the real kernel to
   verify ``y`` numerically.

Performance is reported exactly as in the paper (Sec. IV):
``FLOPS/s = 2 * nnz * iterations / time``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..machine.base import DEFAULT_MACHINE, MachineConfig, MachineModel, Topology
from ..machine.registry import get_machine
from ..rcce.errors import RCCEBudgetExceededError
from ..rcce.runtime import RCCERuntime
from ..sparse.csr import CSRMatrix
from ..sparse.fastpath import BatchedSummaries, BatchedTraces, batch_access_summaries, batch_traces
from ..sparse.partition import (
    RowPartition,
    partition_rows_balanced,
    partition_rows_uniform,
)
from ..sparse.spmv import spmv_no_x_miss, spmv_row_range
from ..sparse.stats import working_set_per_core
from .mapping import get_mapping
from .timing import (
    CoreTiming,
    barrier_exit_times,
    resolve_barrier_schedule,
    solve_core_times,
    solve_core_times_batched,
)
from .trace import (
    DEFAULT_X_CAPACITY_FRACTION,
    UETrace,
    characterize_partition,
    gather_links,
    summary_list,
)

__all__ = [
    "ExperimentResult",
    "SpMVExperiment",
    "DEFAULT_ITERATIONS",
    "MODES",
]

#: SpMV repetitions per timed run, matching the usual benchmarking loop.
DEFAULT_ITERATIONS = 16

KERNELS = ("csr", "no_x_miss")

#: how a run is timed: ``sim`` replays the job on the event-driven RCCE
#: runtime; ``model`` composes the same per-core times and an analytic
#: barrier critical path without scheduling events (the fast path);
#: ``exact-trace`` replaces the analytic cache characterization with
#: trace-exact per-UE hit/miss counts from the vectorized replay engine
#: (:mod:`repro.scc.vecreplay`) — the validation path, now viable at
#: full Table-I scale; ``predict`` answers from a trained feature-based
#: regressor (:mod:`repro.predict`) in microseconds, falling back to
#: ``model`` when no artifact is available.
MODES = ("sim", "model", "exact-trace", "predict")


@dataclass(frozen=True)
class ExperimentResult:
    """Outcome of one (matrix, cores, config, mapping, kernel) run.

    Throughput is reported as ``FLOPS = 2 * nnz * iterations`` over the
    makespan (paper Sec. IV).
    """

    matrix_name: str
    n: int
    nnz: int
    n_cores: int
    config_name: str
    mapping: str
    kernel: str
    iterations: int
    makespan: float                      #: seconds, slowest UE incl. barriers
    per_core: List[CoreTiming] = field(repr=False)
    power_watts: float = 0.0             #: full-chip power of the config
    ws_per_core_bytes: float = 0.0
    y: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    #: machine the run was modeled on (registry id).
    machine: str = DEFAULT_MACHINE
    #: True when the makespan came from the feature-based predictor
    #: (``mode="predict"``), not from the timing composition.
    predicted: bool = False

    @property
    def flops(self) -> int:
        """Total floating-point operations: 2 * nnz * iterations."""
        return 2 * self.nnz * self.iterations

    @property
    def gflops(self) -> float:
        """Throughput in GFLOPS/s over the makespan."""
        return self.flops / self.makespan / 1e9

    @property
    def mflops(self) -> float:
        """Throughput in MFLOPS/s over the makespan."""
        return self.flops / self.makespan / 1e6

    @property
    def mflops_per_watt(self) -> float:
        """Full-system MFLOPS/s per watt, the paper's efficiency metric."""
        return self.mflops / self.power_watts if self.power_watts > 0 else 0.0

    def to_record(self) -> dict:
        """Flatten into the campaign's JSON-serializable record shape."""
        rec = {
            "status": "ok",
            "matrix": self.matrix_name,
            "n": self.n,
            "nnz": self.nnz,
            "n_cores": self.n_cores,
            "config": self.config_name,
            "mapping": self.mapping,
            "kernel": self.kernel,
            "iterations": self.iterations,
            "makespan_s": self.makespan,
            "mflops": self.mflops,
            "power_watts": self.power_watts,
            "mflops_per_watt": self.mflops_per_watt,
            "ws_per_core_bytes": self.ws_per_core_bytes,
        }
        # Records stay byte-identical to the pre-zoo format on the
        # default machine (the golden campaign fixture contract);
        # machine and predicted markers appear only off the default path.
        if self.machine != DEFAULT_MACHINE:
            rec["machine"] = self.machine
        if self.predicted:
            rec["predicted"] = True
        return rec


def _zero_entry_exits(core_map: Tuple[int, ...], mesh: Any) -> Tuple[float, ...]:
    """Exit times of a barrier every UE enters at 0 (a run's first).

    They depend only on the mapping and the mesh, so the analytic tiers
    memoize them per mapping through ``SpMVExperiment._shared``.
    """
    return tuple(barrier_exit_times([0.0] * len(core_map), core_map, mesh=mesh))


def _ue_body(comm, durations, blocks, a, x, kernel, verify):
    """The program every UE executes on the runtime."""
    yield from comm.barrier()
    yield from comm.compute(durations[comm.ue])
    result_block = None
    if verify:
        r0, r1 = blocks[comm.ue]
        if kernel == "no_x_miss":
            result_block = spmv_no_x_miss(a, x, r0, r1)
        else:
            result_block = spmv_row_range(a, x, r0, r1)
    yield from comm.barrier()
    if verify:
        gathered = yield from comm.gather(result_block, root=0)
        if comm.ue == 0:
            return np.concatenate(gathered)
        return None
    return None


class SpMVExperiment:
    """Run the paper's SpMV study for one matrix on a modeled machine.

    ``machine`` is a registry id (``"scc-48"``, ``"xeonphi-61"``,
    ``"ft2000plus-64"``) or a :class:`repro.machine.MachineModel`;
    omitted, the paper's SCC is used and every number is bitwise
    identical to the pre-zoo code path.
    """

    #: available row-partitioning schemes; the paper uses ``balanced``.
    PARTITIONERS = {
        "balanced": partition_rows_balanced,
        "uniform": partition_rows_uniform,
    }

    def __init__(
        self,
        a: CSRMatrix,
        name: str = "matrix",
        topology: Optional[Topology] = None,
        timing: Optional[Any] = None,
        x_capacity_fraction: float = DEFAULT_X_CAPACITY_FRACTION,
        partitioner: str = "balanced",
        machine: Union[str, MachineModel, None] = None,
    ) -> None:
        if partitioner not in self.PARTITIONERS:
            raise ValueError(
                f"partitioner must be one of {sorted(self.PARTITIONERS)}, "
                f"got {partitioner!r}"
            )
        self.a = a
        self.name = name
        self.machine = get_machine(machine if machine is not None else DEFAULT_MACHINE)
        self.topology = topology or self.machine.topology
        self.timing = timing if timing is not None else self.machine.timing
        self.x_capacity_fraction = x_capacity_fraction
        self.partitioner = partitioner
        self._trace_cache: Dict[int, List[UETrace]] = {}
        #: line links of the whole x gather, shared by every core count.
        self._gather_links: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._partition_cache: Dict[int, RowPartition] = {}
        self._batch_cache: Dict[int, BatchedTraces] = {}
        self._summary_cache: Dict[Tuple, BatchedSummaries] = {}
        self._ws_cache: Dict[int, float] = {}
        #: mode="predict" feature caches: the matrix-level extraction
        #: (one O(nnz) pass, machine-independent) and the O(n_parts)
        #: partition reductions per core count.
        self._matrix_features: Optional[Any] = None
        self._partition_features_cache: Dict[int, Any] = {}

    # Model-mode memos shared across experiments (class-level): core
    # maps, chip power, the stateless chip substrates and barrier
    # schedules depend on the machine, its topology and the run's
    # mapping/config — never on the matrix.  ``_shared`` keys them all
    # by the machine and topology *objects*, so a re-parameterized
    # machine never aliases a registry instance; ``_shared_solver_cache``
    # holds the solver's per-mapping arrays, keyed by memory system.
    _shared_memo: Dict[Tuple, Any] = {}
    _shared_solver_cache: Dict = {}

    def _shared(self, build: Callable[..., Any], *args: Any) -> Any:
        """``build(*args)`` on this machine and topology, memoized process-wide."""
        key = (self.machine, self.topology, build, args)
        memo = SpMVExperiment._shared_memo
        try:
            return memo[key]
        except KeyError:
            value = memo[key] = build(*args)
            return value

    # -- cached analyses ---------------------------------------------------

    def partition(self, n_ues: int) -> RowPartition:
        """The (cached) row partition for this UE count."""
        if n_ues not in self._partition_cache:
            split = self.PARTITIONERS[self.partitioner]
            self._partition_cache[n_ues] = split(self.a, n_ues)
        return self._partition_cache[n_ues]

    def traces(self, n_ues: int) -> List[UETrace]:
        """Per-UE stream characterization (frequency/mapping independent)."""
        if n_ues not in self._trace_cache:
            cache_geom = self.machine.cache
            if self._gather_links is None:
                self._gather_links = gather_links(self.a, cache_geom.line_bytes)
            self._trace_cache[n_ues] = characterize_partition(
                self.a,
                self.partition(n_ues),
                line_bytes=cache_geom.line_bytes,
                l1_bytes=cache_geom.l1_bytes,
                l2_bytes=cache_geom.l2_bytes,
                x_capacity_fraction=self.x_capacity_fraction,
                links=self._gather_links,
            )
        return self._trace_cache[n_ues]

    def batched_traces(self, n_ues: int) -> BatchedTraces:
        """The (cached) columnized form of :meth:`traces` for the fast path."""
        if n_ues not in self._batch_cache:
            self._batch_cache[n_ues] = batch_traces(self.traces(n_ues))
        return self._batch_cache[n_ues]

    def _batched_summaries(self, n_ues, iterations, l2_enabled, no_x_miss):
        """Memoized batched access summaries (reused across configs that
        share an L2 switch — e.g. all three frequency presets)."""
        key = (n_ues, iterations, l2_enabled, no_x_miss)
        summ = self._summary_cache.get(key)
        if summ is None:
            summ = batch_access_summaries(
                self.batched_traces(n_ues),
                iterations=iterations,
                l2_enabled=l2_enabled,
                no_x_miss=no_x_miss,
                l2_bytes=self.machine.cache.l2_bytes,
            )
            self._summary_cache[key] = summ
        return summ

    def exact_summaries(
        self,
        n_ues: int,
        iterations: int,
        l2_enabled: bool = True,
        no_x_miss: bool = False,
        tracer: Optional[Any] = None,
    ) -> BatchedSummaries:
        """Trace-exact per-UE access summaries via vectorized replay.

        Each UE's row block is replayed through the set-parallel exact
        engine (``engine="vectorized"`` of
        :func:`repro.scc.tracegen.replay_trace`): ``l2_hits`` and
        ``l2_misses`` are the simulated hierarchy's actual counts, not
        the HOTL locality estimate.  Memoized in process and — via the
        replay disk cache — across processes.
        """
        key = ("exact", n_ues, iterations, l2_enabled, no_x_miss)
        summ = self._summary_cache.get(key)
        if summ is None:
            from ..scc.tracegen import replay_trace

            partition = self.partition(n_ues)
            ranges = partition.ranges()
            counts = [
                replay_trace(
                    self.a,
                    r0,
                    r1,
                    iterations=iterations,
                    no_x_miss=no_x_miss,
                    l2_enabled=l2_enabled,
                    engine="vectorized",
                    tracer=tracer,
                    machine_key=self.machine.cache_key(),
                )
                for r0, r1 in ranges
            ]
            summ = self._summary_cache[key] = BatchedSummaries(
                nnz=partition.part_nnz(self.a),
                rows=np.array([r1 - r0 for r0, r1 in ranges], dtype=np.int64),
                iterations=iterations,
                l2_hits=np.array([c.l2_hits for c in counts], dtype=np.float64),
                l2_misses=np.array([c.mem_misses for c in counts], dtype=np.float64),
            )
        return summ

    def _core_map(
        self, mapping: Union[str, Sequence[int]], n_cores: int
    ) -> Tuple[List[int], str]:
        """The UE-to-core list and the recorded mapping name of a run.

        A policy name resolves through the shared memo (pure in its
        inputs); an explicit core list must name ``n_cores`` cores and
        is recorded as ``"explicit"``.
        """
        if not isinstance(mapping, str):
            core_map = list(mapping)
            if len(core_map) != n_cores:
                raise ValueError(
                    f"explicit mapping names {len(core_map)} cores but n_cores={n_cores}"
                )
            return core_map, "explicit"
        return list(self._shared(get_mapping(mapping), n_cores, self.topology)), mapping

    def _ws_per_core(self, n_cores: int) -> float:
        """Memoized per-core working set of this matrix."""
        ws = self._ws_cache.get(n_cores)
        if ws is None:
            ws = self._ws_cache[n_cores] = working_set_per_core(self.a, n_cores)
        return ws

    # -- mode="predict" features -------------------------------------------

    def point_feature_vector(
        self,
        n_cores: int,
        core_map: List[int],
        config: MachineConfig,
        kernel: str,
        iterations: int,
    ) -> np.ndarray:
        """The full predictor feature vector of one campaign point.

        This is the *only* extraction path — training
        (:mod:`repro.predict.dataset`) and serving (``mode="predict"``)
        both come through here, so the two can never skew.  The O(nnz)
        matrix pass runs once per experiment, the O(n_parts) partition
        reduction once per core count; per-point assembly is O(n_cores).
        """
        from ..sparse.features import matrix_features, partition_features, point_features

        mf = self._matrix_features
        if mf is None:
            mf = self._matrix_features = matrix_features(self.a)
        pf = self._partition_features_cache.get(n_cores)
        if pf is None:
            pf = self._partition_features_cache[n_cores] = partition_features(
                self.a, self.partition(n_cores), mf
            )
        return point_features(mf, pf, self.machine, config, core_map, kernel, iterations)

    # -- the runner ---------------------------------------------------------

    def run(
        self,
        n_cores: int = 48,
        config: Optional[MachineConfig] = None,
        mapping: Union[str, Sequence[int]] = "distance_reduction",
        kernel: str = "csr",
        iterations: int = DEFAULT_ITERATIONS,
        verify: bool = False,
        x: Optional[np.ndarray] = None,
        time_budget: Optional[float] = None,
        tracer: Optional[Any] = None,
        mode: str = "sim",
    ) -> ExperimentResult:
        """Execute one configuration and return its result.

        ``mapping`` is a policy name from :mod:`repro.core.mapping` or an
        explicit core list (e.g. from ``single_core_at_distance``).
        ``verify=True`` additionally runs the real kernel and attaches
        ``y`` to the result (on the RCCE runtime in ``sim`` mode; computed
        directly, outside the timed region, in ``model`` mode).
        ``time_budget`` bounds the run in *simulated* seconds: a job that
        has not finished by then raises
        :class:`~repro.rcce.errors.RCCEBudgetExceededError` — campaigns
        use this to turn a hung point into a structured record instead
        of a hung sweep.  ``tracer`` (a :class:`repro.obs.Tracer`)
        observes the whole stack: runtime spans, mesh counters, memory
        histograms and per-core model summaries.

        ``mode="sim"`` replays the job on the event-driven runtime;
        ``mode="model"`` computes the identical per-core times in one
        vectorized pass (:mod:`repro.sparse.fastpath`) and propagates the
        barrier critical path analytically
        (:func:`repro.core.timing.barrier_exit_times`) — same numbers to
        the tolerance stated in ``docs/PERFORMANCE.md``, orders of
        magnitude faster.  The model times the standard barrier/compute/
        barrier loop; runtime-only effects (per-event tracer spans,
        the verify gather) exist only in ``sim`` mode.
        ``mode="exact-trace"`` runs the same analytic composition but
        replaces the HOTL cache characterization with trace-exact
        per-UE counts from the vectorized replay engine — the
        ground-truth validation path (``repro run --validate-exact``).
        ``mode="predict"`` takes the makespan from the machine's trained
        regressor (``predicted=True``); without an artifact the model
        tier answers.  Every tier shares the budget check, the direct
        ``verify`` product (where the tier did not gather one), tracer
        emission and result construction.
        """
        if kernel not in KERNELS:
            raise ValueError(f"kernel must be one of {KERNELS}, got {kernel!r}")
        if mode not in MODES:
            raise ValueError(
                f"mode must be one of {MODES}, got {mode!r} "
                f"(machine {self.machine.machine_id!r})"
            )
        if not self.machine.supports_mode(mode):
            raise ValueError(
                f"machine {self.machine.machine_id!r} supports modes "
                f"{self.machine.supported_modes}, got {mode!r}; the "
                "event-driven runtime and the trace-exact replay engine "
                "exist only for the SCC"
            )
        if config is None:
            config = self.machine.default_config
        core_map, mapping_name = self._core_map(mapping, n_cores)

        predictor = None
        if mode == "predict":
            from ..predict.artifact import get_predictor

            # Without a usable artifact the model tier answers (the
            # loader warns once per machine); ``predicted`` stays False.
            predictor = get_predictor(self.machine)
            if predictor is None:
                mode = "model"

        # Each tier supplies only what it replaces: the makespan, the
        # per-core timings and, where known, per-UE exit times and ``y``.
        timings: List[CoreTiming] = []
        exited: Optional[List[float]] = None
        y = None
        if mode == "sim":
            timings, makespan, y = self._sim_tier(
                n_cores, core_map, config, kernel, iterations, verify, x,
                time_budget, tracer,
            )
        elif predictor is not None:
            feats = self.point_feature_vector(n_cores, core_map, config, kernel, iterations)
            makespan = predictor.predict_makespan(feats, self.a.nnz, iterations)
        else:
            timings, exited = self._analytic_tier(
                n_cores, core_map, config, kernel, iterations, tracer,
                exact=(mode == "exact-trace"),
            )
            makespan = max(exited)

        if time_budget is not None and makespan > time_budget:
            stuck = (
                [ue for ue, done in enumerate(exited) if done > time_budget]
                if exited is not None
                else list(range(n_cores))
            )
            raise RCCEBudgetExceededError(time_budget, stuck, time_budget)
        if verify and y is None:
            # The analytic and predicted tiers never execute the kernel:
            # compute the product directly, outside the timed region.
            y = self._blockwise_product(n_cores, kernel, x)
        if tracer:
            if predictor is not None:
                tracer.metrics.counter("predict.answers").inc()
            else:
                self._emit_core_metrics(tracer, timings)

        return ExperimentResult(
            matrix_name=self.name,
            n=self.a.n_rows,
            nnz=self.a.nnz,
            n_cores=n_cores,
            config_name=config.name,
            mapping=mapping_name,
            kernel=kernel,
            iterations=iterations,
            makespan=makespan,
            per_core=timings,
            power_watts=self._shared(self.machine.chip_power, config),
            ws_per_core_bytes=self._ws_per_core(n_cores),
            y=y,
            machine=self.machine.machine_id,
            predicted=predictor is not None,
        )

    def _sim_tier(
        self,
        n_cores: int,
        core_map: List[int],
        config: MachineConfig,
        kernel: str,
        iterations: int,
        verify: bool,
        x: Optional[np.ndarray],
        time_budget: Optional[float],
        tracer: Optional[Any],
    ) -> Tuple[List[CoreTiming], float, Optional[np.ndarray]]:
        """``mode="sim"``: replay the barrier/compute/barrier loop on RCCE.

        Returns the per-core timings, the runtime's makespan and, with
        ``verify``, the ``y`` gathered on UE 0.  The budget also bounds
        the simulation itself, so a job that never finishes raises
        instead of hanging.
        """
        summaries = self._batched_summaries(
            n_cores, iterations, config.l2_enabled, kernel == "no_x_miss"
        )
        # The sim tier keeps the per-UE list entry point: the host-time
        # benchmark's ``warm_sweep`` workload counts its solver calls
        # (``timing.solve_calls``) as a layer the sweep drives.
        mem = self._shared(self.machine.memory_system, config, self.topology)
        timings = solve_core_times(
            summary_list(summaries), core_map, config, mem, self.timing,
            cache=SpMVExperiment._shared_solver_cache,
        )
        x_vec = x if x is not None else np.ones(self.a.n_cols)
        runtime = RCCERuntime(
            core_map, config=config, topology=self.topology, tracer=tracer
        )
        results = runtime.run(
            _ue_body,
            [t.time for t in timings],
            self.partition(n_cores).ranges(),
            self.a,
            x_vec,
            kernel,
            verify,
            until=time_budget,
        )
        y = results[0].value if verify else None
        return timings, runtime.makespan(results), y

    def _analytic_tier(
        self,
        n_cores: int,
        core_map: List[int],
        config: MachineConfig,
        kernel: str,
        iterations: int,
        tracer: Optional[Any],
        exact: bool,
    ) -> Tuple[List[CoreTiming], List[float]]:
        """The analytic tiers: per-core solve + barrier recurrence.

        ``exact=False`` is ``mode="model"`` (batched HOTL summaries);
        ``exact=True`` is ``mode="exact-trace"`` (the same timing
        composition fed trace-exact per-UE cache counts) — the two
        differ only in where ``l2_hits``/``l2_misses`` come from, which
        is precisely what ``repro run --validate-exact`` compares.
        Returns the per-core timings and every UE's exit time.
        """
        no_x_miss = kernel == "no_x_miss"
        summaries = (
            self.exact_summaries(n_cores, iterations, config.l2_enabled, no_x_miss, tracer=tracer)
            if exact
            else self._batched_summaries(n_cores, iterations, config.l2_enabled, no_x_miss)
        )
        mem = self._shared(self.machine.memory_system, config, self.topology)
        timings = solve_core_times_batched(
            summaries, core_map, config, mem, self.timing,
            cache=SpMVExperiment._shared_solver_cache,
        )

        mesh = self._shared(self.machine.interconnect, config, self.topology)
        schedule = self._shared(resolve_barrier_schedule, tuple(core_map), mesh)
        entered = self._shared(_zero_entry_exits, tuple(core_map), mesh)
        computed = [e + t.time for e, t in zip(entered, timings)]
        return timings, barrier_exit_times(computed, core_map, schedule=schedule)

    def _blockwise_product(
        self, n_cores: int, kernel: str, x: Optional[np.ndarray]
    ) -> np.ndarray:
        """``y`` computed block by block over the run's row partition."""
        x_vec = x if x is not None else np.ones(self.a.n_cols)
        kernel_fn = spmv_no_x_miss if kernel == "no_x_miss" else spmv_row_range
        return np.concatenate(
            [kernel_fn(self.a, x_vec, r0, r1) for r0, r1 in self.partition(n_cores).ranges()]
        )

    @staticmethod
    def _emit_core_metrics(tracer: Any, timings: Sequence[Any]) -> None:
        """Publish per-core model summaries through the tracer's registry.

        Uses the registry's one-pass series API (a single locked
        create-or-get-and-update sweep over both per-core instrument
        names, memoized label tuples, batched histogram observation),
        so an *enabled* tracer costs a few dict lookups per run rather
        than a locked get-or-create plus a method call per instrument
        per core.
        """
        m = tracer.metrics
        m.series_update(
            "model.mem_lines",
            "model.core_time_s",
            "core",
            [(t.core, int(t.mem_lines), t.time) for t in timings],
        )
        m.histogram_observe_many(
            "model.mem_stall_fraction", [t.mem_stall_fraction for t in timings]
        )

    def sweep_cores(
        self,
        core_counts: Sequence[int],
        machine: Union[str, MachineModel, None] = None,
        **kwargs,
    ) -> List[ExperimentResult]:
        """Run the same configuration across several core counts.

        ``machine`` reruns the sweep on another zoo member: a sibling
        experiment is built over the same matrix (partitions and traces
        are machine-dependent, so per-experiment caches cannot be
        shared) and the sweep runs there.
        """
        exp: SpMVExperiment = self
        if machine is not None and get_machine(machine) is not self.machine:
            exp = SpMVExperiment(
                self.a,
                name=self.name,
                x_capacity_fraction=self.x_capacity_fraction,
                partitioner=self.partitioner,
                machine=machine,
            )
        return [exp.run(n_cores=n, **kwargs) for n in core_counts]
