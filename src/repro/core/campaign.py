"""Experiment campaigns: grid sweeps with persistent, resumable results.

A reproduction is only useful if its numbers can be regenerated and
audited later.  :class:`Campaign` runs a cartesian grid of experiment
points — (matrix id, core count, config, mapping, kernel) — appending
one JSON record per completed point to ``<name>.jsonl``.  Reopening the
campaign skips points that are already on disk, so an interrupted sweep
resumes where it stopped, and the records feed any external analysis
without re-simulation.

Robustness contract (the parts a crashed sweep relies on):

- appends are flushed *and* fsynced per record, so a killed process
  loses at most the record being written;
- a truncated trailing line (the fsync race the previous rule cannot
  close) is tolerated on read — the point simply reruns on resume;
  corruption anywhere *else* is an integrity error and raises, pointing
  at :meth:`Campaign.repair`, which quarantines bad lines instead of
  deleting them;
- every record carries a ``status`` — points that exhaust their
  simulated-time budget (``point_budget``) or die on a runtime error
  are recorded as ``timeout`` / ``failed`` instead of aborting the
  sweep, and are *not* retried on resume (delete the record or repair
  to retry);
- ``workers > 1`` or a :class:`~repro.core.supervise.SupervisePolicy`
  runs the pool under the self-healing supervisor: worker deaths, hangs
  and task errors are retried with deterministic backoff, and a point
  that fails every attempt is recorded as ``quarantined`` (reason,
  attempts, tracebacks) — unlike ``timeout``/``failed``, a quarantined
  point *is* retryable: the next ``run`` reruns it and its successful
  record supersedes the quarantine marker.
"""

from __future__ import annotations

import dataclasses
import json
import os
import warnings
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..machine.base import DEFAULT_MACHINE
from ..machine.registry import get_machine
from ..rcce.errors import RCCEBudgetExceededError, RCCEError
from ..sim import ProcessFailure, SimulationError
from ..sparse.suite import build_matrix, entry_by_id
from ..obs.metrics import MetricsRegistry
from .experiment import DEFAULT_ITERATIONS, MODES, SpMVExperiment
from .supervise import SupervisePolicy, TaskOutcome, supervised_iter_ordered

__all__ = [
    "CampaignPoint",
    "CampaignContext",
    "Campaign",
    "CampaignIntegrityError",
    "run_campaign_point",
    "validate_points",
]


class CampaignIntegrityError(ValueError):
    """A campaign file holds corrupt JSON away from the trailing edge."""

    def __init__(self, path: Path, lineno: int, detail: str) -> None:
        self.path = path
        self.lineno = lineno
        super().__init__(
            f"{path}:{lineno}: corrupt campaign record ({detail}); "
            f"run the repair path (CLI: `repro run --repair {path}`, "
            f"API: Campaign.repair()) to quarantine bad lines"
        )


@dataclass(frozen=True)
class CampaignPoint:
    """One grid point (hashable: used as the resume key)."""

    mid: int
    n_cores: int
    config: str
    mapping: str
    kernel: str
    #: machine registry id; "" inherits the campaign's machine.  Kept
    #: out of the default key so pre-zoo resume files stay valid.
    machine: str = ""

    def key(self) -> str:
        """Stable string identity used for resume bookkeeping."""
        base = f"{self.mid}:{self.n_cores}:{self.config}:{self.mapping}:{self.kernel}"
        return f"{base}:{self.machine}" if self.machine else base


@dataclass(frozen=True)
class CampaignContext:
    """Everything a worker process needs to execute one point.

    A picklable snapshot of the :class:`Campaign` knobs that affect a
    point's *result* (never its persistence), shipped to pool workers so
    :func:`run_campaign_point` computes identical records in any
    process.
    """

    scale: float
    iterations: int
    mode: str = "sim"
    point_budget: Optional[float] = None
    collect_metrics: bool = False
    #: default machine of points that don't pin one themselves.
    machine: str = DEFAULT_MACHINE


def _grid_fields(pt: CampaignPoint, machine_id: str) -> dict:
    """The identifying fields a failure record carries.

    ``machine`` appears only off the default machine so pre-zoo record
    bytes (the golden campaign fixture) are untouched.
    """
    fields = {
        "matrix": entry_by_id(pt.mid).name,
        "n_cores": pt.n_cores,
        "config": pt.config,
        "mapping": pt.mapping,
        "kernel": pt.kernel,
    }
    if machine_id != DEFAULT_MACHINE:
        fields["machine"] = machine_id
    return fields


def validate_points(
    points: Iterable[CampaignPoint], machine: str, mode: str
) -> List[CampaignPoint]:
    """Check every grid point against its machine before any work runs.

    ``machine`` is the default a point with ``machine=""`` inherits.
    Raises ``ValueError`` on an unknown config preset or a mode the
    point's machine cannot run, so a bad sweep fails at submission
    instead of producing a file of failure records.
    Shared by :meth:`Campaign.run` and the campaign server
    (:mod:`repro.serve`).  Returns the points as a list.
    """
    validated = []
    for pt in points:
        m = get_machine(pt.machine or machine)
        if pt.config not in m.presets:
            raise ValueError(
                f"unknown config {pt.config!r} for machine "
                f"{m.machine_id!r}; choose from {sorted(m.presets)}"
            )
        if not m.supports_mode(mode):
            raise ValueError(
                f"machine {m.machine_id!r} supports modes "
                f"{m.supported_modes}, but this campaign runs "
                f"mode={mode!r}"
            )
        validated.append(pt)
    return validated


def run_campaign_point(
    pt: CampaignPoint,
    ctx: CampaignContext,
    cache: Dict[Tuple[int, float, str], SpMVExperiment],
) -> dict:
    """Execute one grid point, mapping failures to structured records.

    Pure in ``(pt, ctx)`` — the ``cache`` only memoizes matrix builds
    within one process — so serial and parallel execution produce
    bitwise-identical records.
    """
    machine_id = pt.machine or ctx.machine
    exp = cache.get((pt.mid, ctx.scale, machine_id))
    if exp is None:
        entry = entry_by_id(pt.mid)
        exp = cache[(pt.mid, ctx.scale, machine_id)] = SpMVExperiment(
            build_matrix(pt.mid, scale=ctx.scale), name=entry.name, machine=machine_id
        )
    presets = exp.machine.presets
    tracer = None
    if ctx.collect_metrics:
        # categories=() drops every trace event but leaves the
        # metrics registry live: summaries without event overhead.
        from ..obs import Tracer

        tracer = Tracer(categories=())
    try:
        result = exp.run(
            n_cores=pt.n_cores,
            config=presets[pt.config],
            mapping=pt.mapping,
            kernel=pt.kernel,
            iterations=ctx.iterations,
            time_budget=ctx.point_budget,
            tracer=tracer,
            mode=ctx.mode,
        )
        rec = result.to_record()
        if tracer is not None:
            rec["metrics"] = tracer.metrics.flat_summary()
        return rec
    except RCCEBudgetExceededError as exc:
        return {
            "status": "timeout",
            **_grid_fields(pt, machine_id),
            "budget_s": exc.budget,
            "stuck_ues": list(exc.running_ues),
            "error": str(exc),
        }
    except (RCCEError, ProcessFailure, SimulationError) as exc:
        return {
            "status": "failed",
            **_grid_fields(pt, machine_id),
            "error_type": type(exc).__name__,
            "error": str(exc),
        }


def _point_identity(pt: CampaignPoint) -> str:
    return pt.key()


def _iter_jsonl(path: Path, tolerate_trailing: bool = True):
    """Yield (lineno, record) from a campaign file, defensively.

    A bad *final* line is tolerated (with a warning): it is the
    signature of a write cut mid-record by a crash, and dropping it just
    reruns that point.  A bad line with valid records *after* it means
    the file was edited or the disk corrupted — that raises
    :class:`CampaignIntegrityError` so nobody silently analyses a
    damaged campaign.
    """
    bad: Optional[Tuple[int, str]] = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            if bad is not None:
                raise CampaignIntegrityError(path, bad[0], bad[1])
            try:
                rec = json.loads(stripped)
            except json.JSONDecodeError as exc:
                bad = (lineno, f"invalid JSON: {exc}")
                continue
            if not isinstance(rec, dict):
                bad = (lineno, f"expected an object, got {type(rec).__name__}")
                continue
            yield lineno, rec
    if bad is not None:
        if not tolerate_trailing:
            raise CampaignIntegrityError(path, bad[0], bad[1])
        warnings.warn(
            f"{path}:{bad[0]}: ignoring truncated trailing record "
            f"({bad[1]}); the point will rerun on resume",
            stacklevel=2,
        )


class Campaign:
    """A persistent sweep over the experiment grid."""

    def __init__(
        self,
        name: str,
        output_dir: Path | str,
        scale: float = 1.0,
        iterations: int = DEFAULT_ITERATIONS,
        point_budget: Optional[float] = None,
        collect_metrics: bool = False,
        mode: str = "sim",
        machine: str = DEFAULT_MACHINE,
    ) -> None:
        if not name or "/" in name:
            raise ValueError(f"campaign name must be a simple identifier, got {name!r}")
        if iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {iterations}")
        if point_budget is not None and point_budget <= 0:
            raise ValueError(f"point_budget must be > 0, got {point_budget}")
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        get_machine(machine)  # fail fast (KeyError with suggestions) on typos
        self.name = name
        #: default machine of every point that doesn't pin its own.
        self.machine = machine
        self.output_dir = Path(output_dir)
        self.output_dir.mkdir(parents=True, exist_ok=True)
        self.path = self.output_dir / f"{name}.jsonl"
        self.scale = scale
        self.iterations = iterations
        #: per-point simulated-time budget (None = unbounded).
        self.point_budget = point_budget
        #: attach a metrics-only tracer per point and append its flat
        #: summary to the record under ``"metrics"``.
        self.collect_metrics = collect_metrics
        #: how points are timed: the event-driven simulator (``sim``) or
        #: the analytic fast path (``model``, same numbers to the
        #: tolerance in ``docs/PERFORMANCE.md``).
        self.mode = mode
        self._experiments: Dict[Tuple[int, float, str], SpMVExperiment] = {}

    # -- persistence ----------------------------------------------------

    def completed_keys(self) -> set:
        """Resume keys of every record already on disk.

        Failed and timed-out points count as completed — rerunning a
        point that deterministically times out would wedge every resume.
        Quarantined points (supervised runs only) are *retryable*: their
        keys are excluded unless a later record superseded the
        quarantine, so the next ``run`` picks them up again.
        """
        last_status: Dict[str, str] = {}
        if self.path.exists():
            for _lineno, rec in _iter_jsonl(self.path):
                if "_key" in rec:
                    last_status[rec["_key"]] = rec.get("status", "ok")
        return {k for k, status in last_status.items() if status != "quarantined"}

    def load(self) -> List[dict]:
        """All records on disk (without the internal resume key).

        A ``quarantined`` record that a later record for the same point
        supersedes (the point was rerun after the fault cleared) is
        dropped — it documents a transient failure, not a result; the
        raw line stays in the file for audits.
        """
        records = []
        if self.path.exists():
            rows = list(_iter_jsonl(self.path))
            last_index: Dict[str, int] = {}
            for i, (_lineno, rec) in enumerate(rows):
                if "_key" in rec:
                    last_index[rec["_key"]] = i
            for i, (_lineno, rec) in enumerate(rows):
                if (
                    rec.get("status") == "quarantined"
                    and last_index.get(rec.get("_key"), i) > i
                ):
                    continue
                rec = dict(rec)
                rec.pop("_key", None)
                records.append(rec)
        return records

    def repair(self) -> Tuple[int, int]:
        """Quarantine corrupt lines; returns (kept, quarantined).

        Bad lines are moved to ``<name>.quarantine.jsonl`` (appended,
        never overwritten — evidence is kept) and the campaign file is
        atomically rewritten with only the valid records.
        """
        if not self.path.exists():
            return 0, 0
        kept: List[str] = []
        quarantined: List[str] = []
        with open(self.path, "r", encoding="utf-8") as fh:
            for line in fh:
                stripped = line.strip()
                if not stripped:
                    continue
                try:
                    rec = json.loads(stripped)
                    ok = isinstance(rec, dict)
                except json.JSONDecodeError:
                    ok = False
                (kept if ok else quarantined).append(stripped)
        if quarantined:
            qpath = self.output_dir / f"{self.name}.quarantine.jsonl"
            with open(qpath, "a", encoding="utf-8") as fh:
                for line in quarantined:
                    fh.write(line + "\n")
                fh.flush()
                os.fsync(fh.fileno())
        tmp = self.path.with_suffix(".jsonl.tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            for line in kept:
                fh.write(line + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        return len(kept), len(quarantined)

    @staticmethod
    def _append(fh, rec: dict) -> None:
        """One durable record: write, flush, fsync."""
        fh.write(json.dumps(rec) + "\n")
        fh.flush()
        os.fsync(fh.fileno())

    # -- execution ----------------------------------------------------------

    def _context(self) -> CampaignContext:
        """The picklable execution context shipped to pool workers."""
        return CampaignContext(
            scale=self.scale,
            iterations=self.iterations,
            mode=self.mode,
            point_budget=self.point_budget,
            collect_metrics=self.collect_metrics,
            machine=self.machine,
        )

    @staticmethod
    def grid(
        ids: Sequence[int],
        core_counts: Sequence[int],
        configs: Sequence[str] = ("conf0",),
        mappings: Sequence[str] = ("distance_reduction",),
        kernels: Sequence[str] = ("csr",),
        machines: Sequence[str] = ("",),
    ) -> List[CampaignPoint]:
        """The cartesian product as explicit points.

        ``machines`` adds the cross-architecture dimension: registry
        ids pin each point to a zoo machine, the default ``""`` defers
        to the campaign's machine (keeping pre-zoo keys and fixture
        bytes unchanged).
        """
        return [
            CampaignPoint(mid, n, cfg, mapping, kernel, machine)
            for mid, n, cfg, mapping, kernel, machine in product(
                ids, core_counts, configs, mappings, kernels, machines
            )
        ]

    def _fallbacks(
        self, ctx: CampaignContext, policy: SupervisePolicy
    ) -> List[Tuple[str, Callable[[CampaignPoint], dict]]]:
        """The graceful-degradation ladder implied by ``policy.on_failure``.

        ``serial`` reruns the point in the parent process (no pool, no
        fork — rules out pool-side failures); ``model`` additionally
        retries on the analytic fast path, trading
        exactness for a record instead of a hole.
        """
        ladder: List[Tuple[str, Callable[[CampaignPoint], dict]]] = []
        if policy.on_failure in ("serial", "model"):
            ladder.append(
                ("serial", lambda pt: run_campaign_point(pt, ctx, self._experiments))
            )
        if policy.on_failure == "model" and ctx.mode != "model":
            model_ctx = dataclasses.replace(ctx, mode="model")
            ladder.append(
                ("model", lambda pt: run_campaign_point(pt, model_ctx, self._experiments))
            )
        return ladder

    def _quarantine_record(self, pt: CampaignPoint, outcome: TaskOutcome) -> dict:
        """The persistent record of a poison point (keeps the grid fields)."""
        rec = outcome.quarantine_record()
        rec.update(_grid_fields(pt, pt.machine or self.machine))
        return rec

    def run(
        self,
        points: Iterable[CampaignPoint],
        workers: int = 1,
        policy: Optional[SupervisePolicy] = None,
    ) -> Tuple[int, int]:
        """Execute all points not yet on disk; returns (ran, skipped).

        A point that times out or fails is recorded with its status and
        the sweep continues — one pathological point cannot take the
        campaign down.

        ``workers > 1`` shards the pending points over that many forked
        processes under the self-healing supervisor
        (:mod:`repro.core.supervise`), with ``policy`` or the default
        :class:`SupervisePolicy`; ``workers=1`` without a policy runs
        in this process.  Records are appended in submission order
        regardless of completion order, so a parallel run's file is
        bitwise-identical to the serial one.  Duplicate points in
        ``points`` count as skipped, same as points already on disk.

        Under supervision, worker deaths, hangs
        (``policy.task_timeout``) and unexpected task errors are retried
        in-pool with deterministic backoff; a point failing every
        attempt walks the ``policy.on_failure`` degradation ladder and,
        if nothing rescues it, is persisted as a ``quarantined`` record
        the next ``run`` will retry.  Recovered points produce records
        byte-identical to an undisturbed run — retry bookkeeping lives
        only in quarantine records and in :attr:`last_supervise`.
        """
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        done = self.completed_keys()
        pending: List[CampaignPoint] = []
        skipped = 0
        for pt in validate_points(points, self.machine, self.mode):
            if pt.key() in done:
                skipped += 1
                continue
            done.add(pt.key())
            pending.append(pt)
        ctx = self._context()
        registry = MetricsRegistry()
        ran = 0
        try:
            with open(self.path, "a", encoding="utf-8") as fh:
                for outcome in supervised_iter_ordered(
                    lambda pt: run_campaign_point(pt, ctx, self._experiments),
                    pending,
                    workers,
                    policy,
                    identity=_point_identity,
                    fallbacks=self._fallbacks(ctx, policy) if policy else (),
                    metrics=registry,
                ):
                    pt = outcome.item
                    rec = (
                        outcome.value
                        if outcome.ok
                        else self._quarantine_record(pt, outcome)
                    )
                    rec["_key"] = pt.key()
                    rec["scale"] = self.scale
                    self._append(fh, rec)
                    ran += 1
        finally:
            #: ``supervise.*`` counters of the most recent run.
            self.last_supervise = registry.flat_summary()
        return ran, skipped

    # -- analysis --------------------------------------------------------------

    def summarize(self, group_by: str = "n_cores") -> Dict:
        """Mean MFLOPS/s of successful records grouped by one field.

        Timed-out and failed points are excluded (they carry no
        throughput); they still live in the file for failure analysis.
        """
        groups: Dict = {}
        for rec in self.load():
            if rec.get("status", "ok") != "ok":
                continue
            groups.setdefault(rec[group_by], []).append(rec["mflops"])
        return {k: sum(v) / len(v) for k, v in sorted(groups.items())}

    def metrics_summary(self) -> Dict[str, object]:
        """Campaign-wide merge of every record's ``"metrics"`` block.

        Only meaningful with ``collect_metrics=True``; records without a
        metrics block (failures, runs before the flag) are skipped.
        Per-worker summaries merge exactly like serial ones — the merge
        is associative — so parallel campaigns aggregate identically.
        """
        from ..obs.metrics import merge_flat_summaries

        return merge_flat_summaries(
            [rec["metrics"] for rec in self.load() if isinstance(rec.get("metrics"), dict)]
        )

    def status_counts(self) -> Dict[str, int]:
        """How many records ended in each status (ok/timeout/failed/quarantined)."""
        counts: Dict[str, int] = {}
        for rec in self.load():
            status = rec.get("status", "ok")
            counts[status] = counts.get(status, 0) + 1
        return dict(sorted(counts.items()))
