"""Dedup-aware job queue: the exactly-once heart of the campaign server.

One :class:`PointQueue` instance owns every invariant the service test
suite (``tests/test_serve_e2e.py``, ``tests/test_serve_concurrent.py``)
pins down:

* **store-first dedup** — a submitted point whose store key already has
  a sealed record is answered immediately, no simulation;
* **in-flight coalescing** — a point another job is already computing
  is *joined*, not re-enqueued: N concurrent jobs over overlapping
  grids cause each unique key to be simulated exactly once;
* **claim atomicity** — :meth:`claim_batch` transfers pending points to
  the claimed set under one lock, so no two scheduler passes (or racing
  threads in the claim-atomicity test) ever execute the same key;
* **completion ordering** — :meth:`complete` stores the record *before*
  dropping the key from the in-flight table (both under the lock), so a
  duplicate submission arriving mid-completion either joins the flight
  or hits the store — there is no window where it would re-simulate.

Quarantined outcomes are deliberately **not** stored: like campaign
files (PR 7 ladder), a quarantine documents a transient failure, not a
result, and the next submission of the same point retries it.

Everything here is synchronous and in-memory; durability lives in the
server's journal and the content store, both of which survive restarts.
"""

from __future__ import annotations

import json
import threading
import zlib
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.campaign import CampaignContext, CampaignPoint
from ..store import ContentStore
from .protocol import (
    POINT_ORIGINS,
    CampaignSpec,
    ExperimentMemo,
    execute_point,
    point_store_key,
)

__all__ = ["Job", "PointQueue"]


#: the one already-set event every finished job shares.
_DONE = threading.Event()
_DONE.set()


class Job:
    """One submission's lifecycle: points, per-point records, counters.

    Created (and every record attached) only while the owning queue's
    lock is held.  A finished job shrinks to its answer: id, machine,
    mode and origins, plus its records as compressed JSON
    (:attr:`frozen`).  Points and keys are dropped, so a long-lived
    server keeps about 0.6 KB per finished two-point job.
    """

    __slots__ = (
        "job_id", "machine", "mode", "points", "keys", "origins", "done",
        "_records", "_frozen",
    )

    def __init__(self, job_id: str, spec: CampaignSpec, ctx: CampaignContext) -> None:
        self.job_id = job_id
        self.machine = spec.machine
        self.mode = spec.mode
        self.points: Sequence[CampaignPoint] = spec.points()
        #: store key per point; empty once the job is finished.
        self.keys: Sequence[str] = [point_store_key(pt, ctx) for pt in self.points]
        #: per-point origin (``store``/``shared``/``simulated``/``quarantined``).
        self.origins: List[Optional[str]] = [None] * len(self.points)
        self.done = threading.Event()
        #: per-point record, filled as results arrive (grid order kept).
        self._records: Sequence[Optional[dict]] = [None] * len(self.points)
        self._frozen = b""
        if not self.points:
            self._freeze()

    # -- mutation (queue-lock-only) --------------------------------------

    def attach(self, index: int, record: dict, origin: str) -> None:
        """Fill one point's slot; finishes the job on the last slot."""
        if self.origins[index] is None:
            self._records[index] = record
            self.origins[index] = origin
        if all(o is not None for o in self.origins):
            self._freeze()

    def _freeze(self) -> None:
        """Finish: keep the answer, drop everything that produced it."""
        self._frozen = zlib.compress(json.dumps(self._records).encode(), 1)
        self.done.set()
        self.done = _DONE
        self.points = self.keys = self._records = ()

    # -- read-side views -------------------------------------------------

    @property
    def records(self) -> Sequence[Optional[dict]]:
        """Per-point records in grid order (decoded anew once finished)."""
        if self.done.is_set():
            return json.loads(self.frozen)
        return self._records

    @property
    def frozen(self) -> str:
        """A finished job's records as ``json.dumps`` encodes them."""
        return zlib.decompress(self._frozen).decode()

    @property
    def state(self) -> str:
        if self.done.is_set():
            return "done"
        if any(o is not None for o in self.origins):
            return "running"
        return "queued"

    def counts(self) -> Dict[str, int]:
        """Points by origin plus the headline dedup/simulation totals."""
        by_origin = {origin: 0 for origin in POINT_ORIGINS}
        for origin in self.origins:
            if origin is not None:
                by_origin[origin] += 1
        return {
            "points": len(self.origins),
            "completed": sum(o is not None for o in self.origins),
            "dedup_hits": by_origin["store"] + by_origin["shared"],
            "simulated": by_origin["simulated"],
            "quarantined": by_origin["quarantined"],
            "predicted": by_origin["predicted"],
            **{f"origin_{k}": v for k, v in by_origin.items()},
        }

    def summary(self) -> Dict[str, object]:
        return {
            "job_id": self.job_id,
            "state": self.state,
            "machine": self.machine,
            "mode": self.mode,
            **self.counts(),
        }


class PointQueue:
    """Pending/claimed point table with store-backed dedup.

    The table maps store key -> list of ``(job, point_index)`` waiters.
    A key lives in exactly one of three places: ``_pending`` (enqueued,
    unclaimed), ``_claimed`` (handed to the scheduler's current batch),
    or nowhere (its record is in the store, or it was never submitted).
    """

    def __init__(self, store: ContentStore) -> None:
        self.store = store
        self._lock = threading.Lock()
        self._has_pending = threading.Condition(self._lock)
        #: key -> the point to run (first submitter's instance).
        self._points: Dict[str, Tuple[CampaignPoint, CampaignContext]] = {}
        #: key -> jobs waiting on it (pending *or* claimed keys).
        self._waiters: Dict[str, List[Tuple[Job, int]]] = {}
        self._pending: List[str] = []
        self._claimed: set = set()
        self._jobs: Dict[str, Job] = {}
        self._job_seq = 0
        #: callbacks the server wires up for the serve.* counters; called
        #: under the queue lock, so counter updates are serialized (the
        #: contract :class:`repro.obs.metrics.MetricsRegistry` documents).
        self.on_submit: Callable[[Job], None] = lambda job: None
        self.on_dedup_hit: Callable[[], None] = lambda: None
        self.on_enqueue: Callable[[], None] = lambda: None
        self.on_complete: Callable[[bool], None] = lambda quarantined: None
        self.on_job_done: Callable[[Job], None] = lambda job: None
        self.on_predict: Callable[[], None] = lambda: None
        #: predict fast path state: its own lock + experiment memo, so
        #: feature extraction never runs under the queue lock.
        self._predict_lock = threading.Lock()
        self._predict_experiments = ExperimentMemo()

    # -- submission ------------------------------------------------------

    def submit(self, spec: CampaignSpec, job_id: Optional[str] = None) -> Job:
        """Admit one spec: store hits answered now, the rest enqueued.

        Every decision for the whole grid happens under one lock
        acquisition, so a concurrent identical submission sees either
        all of this job's keys in flight or none — never half.

        ``mode="predict"`` jobs take the admission fast path: every
        point is answered from the machine's trained predictor before
        the queue lock is even taken, attached with
        ``origin="predicted"``, and **never persisted** — the content
        store only ever holds records the model/sim tiers computed, so
        resubmitting the same grid in ``mode="model"`` still simulates.
        """
        ctx = spec.context()
        if ctx.mode == "predict":
            return self._submit_predict(spec, job_id, ctx)
        with self._lock:
            job_id = self._assign_job_id(job_id)
            job = Job(job_id, spec, ctx)
            self._jobs[job_id] = job
            self.on_submit(job)
            fresh = False
            for index, (pt, key) in enumerate(zip(job.points, job.keys)):
                if key in self._waiters:
                    # Another job (or an earlier duplicate point of this
                    # one) is already computing this key: join the flight.
                    self._waiters[key].append((job, index))
                    self.on_dedup_hit()
                    continue
                cached = self.store.get_json(key)
                if cached is not None:
                    self.on_dedup_hit()
                    job.attach(index, cached, "store")
                    continue
                self._points[key] = (pt, ctx)
                self._waiters[key] = [(job, index)]
                self._pending.append(key)
                self.on_enqueue()
                fresh = True
            if job.done.is_set():
                self.on_job_done(job)
            if fresh:
                self._has_pending.notify_all()
            return job

    def _assign_job_id(self, job_id: Optional[str]) -> str:
        """Mint or adopt a job id; caller must hold :attr:`_lock`."""
        if job_id is None:
            self._job_seq += 1
            return f"job-{self._job_seq:06d}"
        # Recovered ids must not collide with future fresh ones.
        tail = job_id.rsplit("-", 1)[-1]
        if tail.isdigit():
            self._job_seq = max(self._job_seq, int(tail))
        return job_id

    def _submit_predict(
        self, spec: CampaignSpec, job_id: Optional[str], ctx: CampaignContext
    ) -> Job:
        """Admission fast path: predict every point, no queue, no store.

        Records are computed under a dedicated lock (serializing only
        concurrent predict submissions against each other and sharing
        one experiment memo), then attached under the queue lock — the
        whole job resolves before :meth:`submit` returns, exactly like
        a grid of store hits.  Quarantine cannot happen here: a failed
        run maps to a structured failure record, same as campaigns.
        """
        points = spec.points()
        with self._predict_lock:
            records = [
                execute_point(pt, ctx, self._predict_experiments) for pt in points
            ]
        with self._lock:
            job = Job(self._assign_job_id(job_id), spec, ctx)
            self._jobs[job.job_id] = job
            self.on_submit(job)
            for index, rec in enumerate(records):
                self.on_predict()
                job.attach(index, rec, "predicted")
            if job.done.is_set():
                self.on_job_done(job)
            return job

    # -- scheduler side --------------------------------------------------

    def claim_batch(
        self, timeout: Optional[float] = None
    ) -> List[Tuple[str, CampaignPoint, CampaignContext]]:
        """Atomically move every pending key to the claimed set.

        Blocks up to ``timeout`` seconds for work (None = forever);
        returns ``[]`` on timeout or shutdown wake-up.  A key returned
        here is owned by the caller until :meth:`complete` /
        :meth:`release` gives it back — concurrent claimers can never
        receive the same key.
        """
        with self._lock:
            if not self._pending:
                self._has_pending.wait(timeout)
            batch = []
            for key in self._pending:
                self._claimed.add(key)
                pt, ctx = self._points[key]
                batch.append((key, pt, ctx))
            self._pending.clear()
            return batch

    def complete(
        self,
        key: str,
        record: dict,
        quarantined: bool = False,
        persist: Optional[bool] = None,
    ) -> None:
        """Finish one claimed key: persist, fan out to waiters, retire.

        The store write happens *inside* the lock, before the key leaves
        the waiter table — the order that makes dedup airtight (see
        module docstring).  Quarantined records fan out but are never
        persisted, keeping the point retryable; ``persist=False`` skips
        the store write for an otherwise-successful record whose bytes
        are not a pure function of the key (a model-fallback rescue of
        an exact-mode point must not poison the exact-mode address).
        """
        if persist is None:
            persist = not quarantined
        with self._lock:
            if key not in self._claimed:
                raise KeyError(f"completing unclaimed key {key[:12]}...")
            if persist and not quarantined:
                self.store.put_json(key, record)
            first = True
            finished: List[Job] = []
            for job, index in self._waiters.pop(key, []):
                origin = (
                    "quarantined"
                    if quarantined
                    else ("simulated" if first else "shared")
                )
                job.attach(index, record, origin)
                first = False
                if job.done.is_set():
                    finished.append(job)
            self._claimed.discard(key)
            self._points.pop(key, None)
            self.on_complete(quarantined)
            for job in finished:
                self.on_job_done(job)

    def release(self, key: str) -> None:
        """Return a claimed key to pending (scheduler crash recovery)."""
        with self._lock:
            if key in self._claimed:
                self._claimed.discard(key)
                self._pending.append(key)
                self._has_pending.notify_all()

    def wake(self) -> None:
        """Wake a blocked :meth:`claim_batch` (used at shutdown)."""
        with self._lock:
            self._has_pending.notify_all()

    # -- read side -------------------------------------------------------

    def job(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        with self._lock:
            return [self._jobs[k] for k in sorted(self._jobs)]

    def depth(self) -> Dict[str, int]:
        """Queue gauges: pending, claimed (running), live jobs."""
        with self._lock:
            return {
                "pending": len(self._pending),
                "claimed": len(self._claimed),
                "jobs": len(self._jobs),
                "jobs_done": sum(1 for j in self._jobs.values() if j.done.is_set()),
            }
