"""The SpMV experiment runner: one matrix on a modeled many-core.

:class:`SpMVExperiment` wires every substrate of one machine together
(the paper's SCC by default; any :mod:`repro.machine` zoo member via
``machine=``).  For a run it

1. partitions the matrix row-wise with balanced nonzeros (the paper's
   scheme) for the requested UE count;
2. characterizes each UE's access stream (:mod:`repro.core.trace`),
   memoizing per UE count — the characterization is mapping- and
   frequency-independent;
3. converts traces to access summaries for the requested kernel
   variant / iteration count / L2 switch;
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

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Counter as TCounter, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..machine.base import DEFAULT_MACHINE, MachineConfig, MachineModel, Topology
from ..machine.registry import get_machine
from ..rcce.errors import RCCEBudgetExceededError, RCCETimeoutError
from ..rcce.runtime import RCCERuntime
from ..scc.core_model import AccessSummary
from ..sparse.csr import CSRMatrix
from ..sparse.fastpath import BatchedTraces, batch_access_summaries, batch_traces
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
    access_summary,
    characterize_partition,
    gather_links,
)

__all__ = [
    "ResultBase",
    "ExperimentResult",
    "FaultTolerantResult",
    "SpMVExperiment",
    "DEFAULT_ITERATIONS",
    "MODES",
    "FT_WORK_TAG",
    "FT_RESULT_TAG",
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


class ResultBase:
    """Shared surface of experiment outcomes (plain mixin, not a dataclass).

    Both result dataclasses carry the (matrix, cores, config, mapping,
    iterations, makespan) identity and report throughput the same way —
    ``FLOPS = 2 * nnz * iterations`` over the makespan (paper Sec. IV).
    The derived properties and the JSONL flattening (:meth:`to_record`)
    live here so campaigns and metrics never special-case the result
    kind.  Kept a plain class so the frozen dataclasses' field order is
    untouched.
    """

    matrix_name: str
    n: int
    nnz: int
    n_cores: int
    config_name: str
    mapping: str
    iterations: int
    makespan: float

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

    def to_record(self) -> dict:
        """Flatten into the campaign's JSON-serializable record shape.

        Subclasses extend the dict; the shared prefix (through
        ``mflops``) is identical for every result kind so downstream
        consumers can group records without caring which driver ran.
        """
        return {
            "status": "ok",
            "matrix": self.matrix_name,
            "n": self.n,
            "nnz": self.nnz,
            "n_cores": self.n_cores,
            "config": self.config_name,
            "mapping": self.mapping,
            "kernel": getattr(self, "kernel", "csr"),
            "iterations": self.iterations,
            "makespan_s": self.makespan,
            "mflops": self.mflops,
        }


@dataclass(frozen=True)
class ExperimentResult(ResultBase):
    """Outcome of one (matrix, cores, config, mapping, kernel) run."""

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
    def mflops_per_watt(self) -> float:
        """Full-system MFLOPS/s per watt, the paper's efficiency metric."""
        return self.mflops / self.power_watts if self.power_watts > 0 else 0.0

    def to_record(self) -> dict:
        rec = super().to_record()
        rec["power_watts"] = self.power_watts
        rec["mflops_per_watt"] = self.mflops_per_watt
        rec["ws_per_core_bytes"] = self.ws_per_core_bytes
        # Records stay byte-identical to the pre-zoo format on the
        # default machine (the golden campaign fixture contract);
        # machine and predicted markers appear only off the default path.
        if self.machine != DEFAULT_MACHINE:
            rec["machine"] = self.machine
        if self.predicted:
            rec["predicted"] = True
        return rec


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


#: reliable-layer user tags of the fault-tolerant driver.
FT_WORK_TAG = 1
FT_RESULT_TAG = 2


@dataclass(frozen=True)
class FaultTolerantResult(ResultBase):
    """Outcome of one fault-tolerant run under a (possibly faulty) plan."""

    matrix_name: str
    n: int
    nnz: int
    n_cores: int
    config_name: str
    mapping: str
    iterations: int
    makespan: float
    plan_name: str
    plan_seed: int
    #: assembled result vector (always present; the driver survives).
    y: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    #: exact equality against the fault-free block-wise computation.
    verified: bool = False
    #: fault + recovery counters: injector kinds (drop/duplicate/corrupt/
    #: core_failure/...) merged with protocol counters (retries,
    #: repartitions, detected_failures, checkpoints, stale_results, ...).
    counters: Dict[str, int] = field(default_factory=dict, repr=False)
    #: ranks that died, with their simulated failure time.
    failed_ues: Dict[int, float] = field(default_factory=dict)
    #: the injector's replayable fault schedule (same seed => identical).
    fault_schedule: List[Tuple] = field(default_factory=list, repr=False, compare=False)
    #: dispatched-event trace when ``record_trace=True`` (for DET900).
    trace: List[Tuple] = field(default_factory=list, repr=False, compare=False)

    def to_record(self) -> dict:
        rec = super().to_record()
        rec["plan"] = self.plan_name
        rec["plan_seed"] = self.plan_seed
        rec["verified"] = self.verified
        rec["failed_ues"] = sorted(self.failed_ues)
        rec["fault_counters"] = dict(sorted(self.counters.items()))
        return rec


def _block_nnz(a: CSRMatrix, r0: int, r1: int) -> int:
    return int(a.ptr[r1] - a.ptr[r0])


def _ft_coordinator(
    comm, rcomm, blocks, a, x, iterations, time_per_nnz, collect_timeout
):
    """Rank 0 of the fault-tolerant driver: dispatch, collect, recover.

    Owns the authoritative ``y``.  Work units are whole partition blocks;
    when a worker dies (discovered by a failed send or a collect timeout
    plus liveness probe) its blocks are re-dealt round-robin over the
    surviving workers — or computed locally when none remain.  Results
    are idempotent (a block is a pure function of the immutable inputs),
    so a late result from a presumed-dead worker is simply accepted or
    discarded as stale, never harmful.
    """
    from ..faults.reliable import PeerFailedError, ReliableSendError

    n_blocks = len(blocks)
    owner: Dict[int, int] = {b: b % comm.num_ues for b in range(n_blocks)}
    dead: set = set()
    counters: TCounter = Counter()
    y = np.zeros(a.n_rows)
    rr = 0  # round-robin pointer for re-deals

    def _mark_dead(w: int) -> None:
        if w not in dead:
            dead.add(w)
            counters["detected_failures"] += 1
            counters["repartitions"] += 1

    def _pick_owner() -> int:
        """Next surviving worker (round-robin), or 0 to compute locally."""
        nonlocal rr
        live = [w for w in range(1, comm.num_ues) if w not in dead]
        if not live:
            return 0
        w = live[rr % len(live)]
        rr += 1
        return w

    for it in range(iterations):
        filled = [False] * n_blocks
        for b in range(n_blocks):
            if owner[b] in dead:
                owner[b] = _pick_owner()

        # -- dispatch this iteration's work to the (believed-live) owners
        for b in range(n_blocks):
            while owner[b] != 0:
                w = owner[b]
                try:
                    yield from rcomm.send(("work", it, b), w, FT_WORK_TAG)
                    break
                except PeerFailedError:
                    _mark_dead(w)
                    owner[b] = _pick_owner()
                except ReliableSendError:
                    # Peer probes alive but never acked: degrade by
                    # taking the block over rather than stalling the run.
                    counters["send_failures"] += 1
                    owner[b] = 0

        # -- compute locally-owned blocks (overlaps with workers)
        for b in range(n_blocks):
            if owner[b] == 0 and not filled[b]:
                r0, r1 = blocks[b]
                yield from comm.compute(_block_nnz(a, r0, r1) * time_per_nnz)
                y[r0:r1] = spmv_row_range(a, x, r0, r1)
                filled[b] = True

        # -- collect, probing and re-dealing on timeout
        while not all(filled):
            try:
                _src, msg = yield from rcomm.recv(
                    None, FT_RESULT_TAG, timeout=collect_timeout
                )
            except RCCETimeoutError:
                for b in range(n_blocks):
                    if filled[b] or owner[b] == 0:
                        continue
                    w = owner[b]
                    alive = w not in dead and (yield from rcomm.detector.probe(w))
                    if alive:
                        continue
                    _mark_dead(w)
                    nw = _pick_owner()
                    if nw != 0:
                        try:
                            yield from rcomm.send(("work", it, b), nw, FT_WORK_TAG)
                            owner[b] = nw
                            continue
                        except (PeerFailedError, ReliableSendError):
                            _mark_dead(nw)
                    owner[b] = 0
                    r0, r1 = blocks[b]
                    yield from comm.compute(_block_nnz(a, r0, r1) * time_per_nnz)
                    y[r0:r1] = spmv_row_range(a, x, r0, r1)
                    filled[b] = True
                continue
            if not (isinstance(msg, tuple) and len(msg) == 4 and msg[0] == "result"):
                counters["garbage_results"] += 1
                continue
            _kind, rit, b, arr = msg
            if rit != it or filled[b]:
                counters["stale_results"] += 1
                continue
            r0, r1 = blocks[b]
            y[r0:r1] = arr
            filled[b] = True

        # -- iteration complete: checkpoint the assembled vector
        counters["checkpoints"] += 1

    # -- release the survivors
    for w in range(1, comm.num_ues):
        if w in dead:
            continue
        try:
            yield from rcomm.send(("stop",), w, FT_WORK_TAG)
        except (PeerFailedError, ReliableSendError):
            _mark_dead(w)
    counters.update(rcomm.counters)
    return {"y": y, "counters": dict(counters)}


def _ft_worker(comm, rcomm, blocks, a, x, time_per_nnz, idle_timeout):
    """Worker loop: compute assigned blocks until told to stop.

    Every receive is bounded (lint rule RCCE130): a worker orphaned by
    message loss keeps polling instead of hanging the simulation, and
    the runtime's time budget bounds the whole job.
    """
    from ..faults.reliable import PeerFailedError, ReliableSendError

    while True:
        try:
            _src, msg = yield from rcomm.recv(0, FT_WORK_TAG, timeout=idle_timeout)
        except RCCETimeoutError:
            continue
        if not (isinstance(msg, tuple) and msg):
            continue
        if msg[0] == "stop":
            break
        if msg[0] != "work" or len(msg) != 3:
            continue
        _kind, it, b = msg
        r0, r1 = blocks[b]
        yield from comm.compute(_block_nnz(a, r0, r1) * time_per_nnz)
        block_y = spmv_row_range(a, x, r0, r1)
        try:
            yield from rcomm.send(("result", it, b, block_y), 0, FT_RESULT_TAG)
        except (PeerFailedError, ReliableSendError):
            break  # coordinator unreachable: nothing left to contribute
    return {"counters": dict(rcomm.counters)}


def _ft_ue_body(
    comm, blocks, a, x, iterations, time_per_nnz, collect_timeout, idle_timeout,
    ack_timeout,
):
    """SPMD entry of the fault-tolerant driver (rank 0 coordinates)."""
    from ..faults.reliable import ReliableComm

    rcomm = ReliableComm(comm, ack_timeout=ack_timeout)
    if comm.ue == 0:
        out = yield from _ft_coordinator(
            comm, rcomm, blocks, a, x, iterations, time_per_nnz, collect_timeout
        )
    else:
        out = yield from _ft_worker(
            comm, rcomm, blocks, a, x, time_per_nnz, idle_timeout
        )
    return out


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
        self._summary_cache: Dict[Tuple, Any] = {}
        self._ws_cache: Dict[int, float] = {}
        #: mode="predict" feature caches: the matrix-level extraction
        #: (one O(nnz) pass, machine-independent) and the O(n_parts)
        #: partition reductions per core count.
        self._matrix_features: Optional[Any] = None
        self._partition_features_cache: Dict[int, Any] = {}

    # Model-mode caches shared across experiments (class-level): barrier
    # schedules, solver arrays, chip power and the stateless chip
    # substrates depend on mapping/config/topology geometry — never on
    # the matrix — and a machine's topology instances are
    # interchangeable.  Keys include the machine id and the topology
    # class so zoo members and exotic subclasses never alias.
    _shared_mapping_cache: Dict[Tuple, Tuple[int, ...]] = {}
    _shared_schedule_cache: Dict[Tuple, List[Tuple[int, int, float]]] = {}
    _shared_solver_cache: Dict = {}
    _shared_power_cache: Dict[Tuple, float] = {}
    _shared_memsys_cache: Dict[Tuple, Any] = {}
    _shared_mesh_cache: Dict[Tuple, Any] = {}

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
    ) -> List[AccessSummary]:
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

            summ = []
            for r0, r1 in self.partition(n_ues).ranges():
                counts = replay_trace(
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
                summ.append(
                    AccessSummary(
                        nnz=int(self.a.ptr[r1] - self.a.ptr[r0]),
                        rows=r1 - r0,
                        iterations=iterations,
                        l2_hits=float(counts.l2_hits),
                        l2_misses=float(counts.mem_misses),
                    )
                )
            self._summary_cache[key] = summ
        return summ

    def _core_map(
        self, mapping: Union[str, Sequence[int]], n_cores: int
    ) -> Tuple[List[int], str]:
        """The UE-to-core list and the recorded mapping name of a run.

        A policy name resolves through a memo shared across experiments
        (pure in its inputs); an explicit core list must name
        ``n_cores`` cores and is recorded as ``"explicit"``.
        """
        if not isinstance(mapping, str):
            core_map = list(mapping)
            if len(core_map) != n_cores:
                raise ValueError(
                    f"explicit mapping names {len(core_map)} cores but n_cores={n_cores}"
                )
            return core_map, "explicit"
        key = (mapping, n_cores, self.machine.machine_id, self.topology.__class__)
        cache = SpMVExperiment._shared_mapping_cache
        cores = cache.get(key)
        if cores is None:
            cores = cache[key] = tuple(get_mapping(mapping)(n_cores, self.topology))
        return list(cores), mapping

    def _chip_power(self, config: MachineConfig) -> float:
        """Memoized full-chip power of a configuration."""
        key = (self.machine.machine_id, config)
        cache = SpMVExperiment._shared_power_cache
        p = cache.get(key)
        if p is None:
            p = cache[key] = self.machine.chip_power(config)
        return p

    def _ws_per_core(self, n_cores: int) -> float:
        """Memoized per-core working set of this matrix."""
        ws = self._ws_cache.get(n_cores)
        if ws is None:
            ws = self._ws_cache[n_cores] = working_set_per_core(self.a, n_cores)
        return ws

    def _model_memory(self, config: MachineConfig) -> Any:
        """Shared untraced memory system for the fast path (stateless reads)."""
        key = (self.machine.machine_id, self.topology.__class__, config.mem_mhz)
        cache = SpMVExperiment._shared_memsys_cache
        mem = cache.get(key)
        if mem is None:
            mem = cache[key] = self.machine.memory_system(
                config, topology=self.topology
            )
        return mem

    def _model_mesh(self, config: MachineConfig) -> Any:
        """Shared untraced, undegraded interconnect for the fast path."""
        key = (self.machine.machine_id, self.topology.__class__, config.mesh_mhz)
        cache = SpMVExperiment._shared_mesh_cache
        mesh = cache.get(key)
        if mesh is None:
            mesh = cache[key] = self.machine.interconnect(
                config, topology=self.topology
            )
        return mesh

    def _barrier_schedule(self, core_map: List[int], mesh: Any):
        """Memoized resolved barrier schedule for one mapping."""
        key = (
            tuple(core_map),
            mesh.mesh_mhz,
            self.machine.machine_id,
            self.topology.__class__,
        )
        cache = SpMVExperiment._shared_schedule_cache
        sched = cache.get(key)
        if sched is None:
            sched = cache[key] = resolve_barrier_schedule(core_map, mesh)
        return sched

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
        barrier loop; runtime-only effects (fault injection, per-event
        tracer spans, the verify gather) exist only in ``sim`` mode.
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
            power_watts=self._chip_power(config),
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
        summaries = [
            access_summary(
                t,
                iterations=iterations,
                l2_enabled=config.l2_enabled,
                no_x_miss=(kernel == "no_x_miss"),
                l2_bytes=self.machine.cache.l2_bytes,
            )
            for t in self.traces(n_cores)
        ]
        mem = self.machine.memory_system(config, topology=self.topology, tracer=tracer)
        timings = solve_core_times(summaries, core_map, config, mem, self.timing)
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
        mem = self._model_memory(config)
        if exact:
            timings = solve_core_times(
                self.exact_summaries(
                    n_cores,
                    iterations,
                    l2_enabled=config.l2_enabled,
                    no_x_miss=(kernel == "no_x_miss"),
                    tracer=tracer,
                ),
                core_map,
                config,
                mem,
                self.timing,
            )
        else:
            summaries = self._batched_summaries(
                n_cores, iterations, config.l2_enabled, kernel == "no_x_miss"
            )
            timings = solve_core_times_batched(
                summaries,
                core_map,
                config,
                mem,
                self.timing,
                cache=SpMVExperiment._shared_solver_cache,
            )

        schedule = self._barrier_schedule(core_map, self._model_mesh(config))
        entered = barrier_exit_times([0.0] * n_cores, core_map, schedule=schedule)
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

    def run_fault_tolerant(
        self,
        n_cores: int = 48,
        config: Optional[MachineConfig] = None,
        mapping: Union[str, Sequence[int]] = "distance_reduction",
        plan: Optional[Any] = None,
        iterations: int = DEFAULT_ITERATIONS,
        x: Optional[np.ndarray] = None,
        time_per_nnz: float = 1e-8,
        time_budget: Optional[float] = None,
        record_trace: bool = False,
        collect_timeout: float = 5e-4,
        idle_timeout: float = 1e-3,
        ack_timeout: float = 2e-4,
        tracer: Optional[Any] = None,
    ) -> FaultTolerantResult:
        """Run SpMV fault-tolerantly under a :class:`~repro.faults.plan.FaultPlan`.

        Rank 0 coordinates: it deals partition blocks to the workers over
        the reliable-messaging layer (:mod:`repro.faults.reliable`),
        re-deals the blocks of workers that die mid-run, checkpoints the
        assembled vector every iteration and survives message loss,
        duplication and corruption.  The returned result carries the
        merged fault/recovery counters and, per the robustness contract,
        ``verified`` is exact (bitwise) equality of ``y`` against the
        fault-free block-wise computation.

        ``plan=None`` (or a faultless plan) runs the same protocol on a
        perfect machine — useful as the baseline of injection studies.
        ``time_budget`` bounds the run in simulated seconds
        (:class:`~repro.rcce.errors.RCCEBudgetExceededError` past it).
        """
        if not self.machine.supports_mode("sim"):
            raise ValueError(
                f"machine {self.machine.machine_id!r} has no event-driven "
                "runtime; fault-tolerant runs require the SCC (sim mode)"
            )
        if config is None:
            config = self.machine.default_config
        core_map, mapping_name = self._core_map(mapping, n_cores)

        blocks = self.partition(n_cores).ranges()
        x_vec = x if x is not None else np.ones(self.a.n_cols)
        runtime = RCCERuntime(
            core_map,
            config=config,
            topology=self.topology,
            record_trace=record_trace,
            fault_plan=plan,
            tracer=tracer,
        )
        results = runtime.run(
            _ft_ue_body,
            blocks,
            self.a,
            x_vec,
            iterations,
            time_per_nnz,
            collect_timeout,
            idle_timeout,
            ack_timeout,
            until=time_budget,
        )
        makespan = runtime.makespan(results)

        coord = results[0].value
        if not isinstance(coord, dict) or "y" not in coord:
            raise RuntimeError(
                "fault-tolerant coordinator returned no result "
                "(rank 0 must be protected from injected failures)"
            )
        y = coord["y"]
        counters: TCounter[str] = Counter(coord["counters"])
        for r in results[1:]:
            if isinstance(r.value, dict):
                counters.update(r.value.get("counters", {}))
        fault_schedule: List[Tuple] = []
        plan_name, plan_seed = "none", 0
        if runtime.fault_injector is not None:
            counters.update(runtime.fault_injector.counters)
            fault_schedule = runtime.fault_injector.schedule_signature()
            plan_name = runtime.fault_injector.plan.name
            plan_seed = runtime.fault_injector.plan.seed
        reference = self._blockwise_product(n_cores, "csr", x_vec)
        return FaultTolerantResult(
            matrix_name=self.name,
            n=self.a.n_rows,
            nnz=self.a.nnz,
            n_cores=n_cores,
            config_name=config.name,
            mapping=mapping_name,
            iterations=iterations,
            makespan=makespan,
            plan_name=plan_name,
            plan_seed=plan_seed,
            y=y,
            verified=bool(np.array_equal(y, reference)),
            counters=dict(counters),
            failed_ues=dict(runtime.failed_ues),
            fault_schedule=fault_schedule,
            trace=list(runtime.sim.trace),
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
