"""The sweep executor: ordered fork-pool sharding with self-healing.

The paper's artifacts are hours-long sweeps — the full matrix suite
crossed with 1–48 cores, mappings and frequency configs — and every grid
point is an independent deterministic computation.  This module is the
one executor every sweep uses (campaigns, figures, fault runs, the
campaign server).  It shards points *without changing the answers*:

- results come back in **submission order**, whatever order workers
  finish in, so a parallel sweep appends records byte-identical to the
  serial one (``tests/test_golden.py`` pins this);
- ``workers <= 1`` with no policy runs in-process and lazily, exceptions
  propagating unchanged — the figure sweeps rely on experiments' caches
  persisting in the parent;
- otherwise points run on a pool of ``fork``-ed workers under a
  :class:`SupervisePolicy` — the caller's, or the default one.  Workers
  inherit the task function and the parent's loaded suite/caches, so
  only items and results cross the pipes and need to pickle.  A call
  builds its own :class:`WorkerPool` and closes it at the end; a
  long-lived caller (the campaign server) passes one pool to every
  call, so its workers and their in-process memos outlive a batch.

The supervisor keeps a sweep running through real failures:

- **timeouts** — each task carries a wall-clock deadline; a hung worker
  (SIGSTOP'd, livelocked, wedged in a syscall) is SIGKILLed at the
  deadline and a fresh worker is forked in its place;
- **retries** — a failed attempt (worker death, timeout, or an
  unexpected exception) is retried up to
  :attr:`SupervisePolicy.max_retries` times with bounded exponential
  backoff plus *deterministic* jitter — the delay is a pure function of
  ``(seed, task identity, attempt)``, so a replayed campaign produces a
  byte-identical retry schedule;
- **quarantine** — a task that fails every attempt (a *poison point*)
  is reported as a structured :class:`TaskOutcome` with reason,
  attempt count and tracebacks instead of killing the sweep; callers
  (``Campaign``) persist it as a ``status: "quarantined"`` record that
  resume treats as retryable;
- **degradation** — before quarantining, the supervisor walks an
  optional fallback ladder (e.g. rerun serially in the parent, then on
  ``mode="model"``) supplied by the caller and selected via
  ``--on-failure``.

Workers talk to the supervisor over one private pipe each — never a
shared queue — so a SIGKILLed worker can corrupt only its own channel,
which the supervisor observes as EOF and handles like any other death.
Platforms without ``fork`` (Windows, some macOS configurations) degrade
to an in-process loop with a warning.

Fault hooks: :data:`CRASH_ENV` names one task identity whose worker dies
abruptly; :data:`CHAOS_ENV` generalizes it to a *seeded fault schedule*
— a JSON map from task identity to an OS-level action (``kill``: abrupt
``os._exit``; ``stop``: SIGSTOP yourself and hang; ``raise``: throw)
applied on selected attempts.  The supervisor reads both variables when
it dispatches a task and ships their values with it, so a long-lived
worker follows the schedule as it is now, not as it was at fork.
``repro chaos`` (:mod:`repro.faults.chaos`) uses it to prove the core
invariant: under any chaos schedule the surviving records are bitwise
identical to the clean run and the quarantined set is exactly the
injected poison set.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import multiprocessing
import os
import signal
import time
import traceback
import warnings
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _wait_connections
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from ..obs.metrics import MetricsRegistry

__all__ = [
    "CRASH_ENV",
    "CHAOS_ENV",
    "CHAOS_ACTIONS",
    "ON_FAILURE_LADDER",
    "ChaosInjectedError",
    "QuarantinedTaskError",
    "SupervisePolicy",
    "TaskFailure",
    "TaskOutcome",
    "WorkerPool",
    "available_parallelism",
    "backoff_delay",
    "chaos_spec",
    "fork_context",
    "in_worker",
    "maybe_chaos",
    "maybe_crash",
    "supervised_iter_ordered",
    "supervised_parallel_map",
]

#: environment variable for deterministic worker-crash injection: set it
#: to a task's identity string (a :meth:`CampaignPoint.key`) and the
#: worker that picks that task up dies with ``os._exit`` before running
#: it — the same abrupt death a kernel OOM kill produces.  Only honoured
#: inside pool workers, never in the parent process.
CRASH_ENV = "REPRO_FAULT_WORKER_CRASH"

#: environment variable holding a JSON chaos schedule: a map from task
#: identity to ``{"action": "kill"|"stop"|"raise", "attempts": [1, ...]
#: | "all"}``.  Honoured only inside worker processes, like the
#: single-identity :data:`CRASH_ENV` hook it generalizes.
CHAOS_ENV = "REPRO_FAULT_CHAOS"

#: the OS-level actions a chaos schedule may request per attempt.
CHAOS_ACTIONS = ("kill", "stop", "raise")

#: the graceful-degradation ladder selectable via ``--on-failure``:
#: ``quarantine`` records the poison point and continues; ``serial``
#: retries once in the parent process first; ``model`` additionally
#: retries on the analytic fast path; ``raise`` aborts the sweep.
ON_FAILURE_LADDER = ("quarantine", "serial", "model", "raise")

#: worker exit code used by the ``kill`` chaos action (distinct from the
#: crash hook's 17, so post-mortems can tell them apart).
_CHAOS_EXIT = 23


def fork_context() -> Optional[multiprocessing.context.BaseContext]:
    """The ``fork`` start-method context, or None where unsupported."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platform-dependent
        return None


def in_worker() -> bool:
    """True when running inside a multiprocessing child process."""
    return multiprocessing.parent_process() is not None


def available_parallelism() -> int:
    """Usable CPU count (>= 1)."""
    return max(1, os.cpu_count() or 1)


class ChaosInjectedError(RuntimeError):
    """Raised inside a worker by the ``raise`` chaos action."""


class QuarantinedTaskError(RuntimeError):
    """A task exhausted every attempt and the caller chose to abort.

    Carries the full :class:`TaskOutcome` so the caller can inspect the
    per-attempt failure history.
    """

    def __init__(self, outcome: "TaskOutcome") -> None:
        self.outcome = outcome
        last = outcome.failures[-1] if outcome.failures else None
        super().__init__(
            f"task {outcome.identity!r} failed all {outcome.attempts} attempt(s)"
            + (f"; last failure: {last.kind}" if last else "")
        )


@dataclass(frozen=True)
class SupervisePolicy:
    """Retry/timeout/backoff knobs of the supervised executor.

    The backoff delay before retry attempt ``k`` (the k-th attempt
    overall, k >= 2) is ``min(backoff_max, backoff_base *
    backoff_factor**(k-2))`` scaled by ``1 + backoff_jitter * u`` where
    ``u`` is a deterministic uniform draw from ``(seed, identity, k)``
    — seeded jitter, so retry schedules replay byte-identically.
    """

    #: wall-clock seconds a single attempt may take before the worker is
    #: SIGKILLed and the attempt counts as a timeout (None = no limit,
    #: hung workers are then indistinguishable from slow ones).
    task_timeout: Optional[float] = None
    #: retries after the first attempt; a task is quarantined after
    #: ``max_retries + 1`` failed attempts.
    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 5.0
    #: jitter fraction in [0, 1]: the delay is stretched by up to this
    #: fraction, deterministically per (seed, identity, attempt).
    backoff_jitter: float = 0.25
    #: seed of the deterministic jitter stream.
    seed: int = 0
    #: what to do when a task exhausts every attempt (see
    #: :data:`ON_FAILURE_LADDER`); callers translate ``serial``/``model``
    #: into a concrete fallback ladder.
    on_failure: str = "quarantine"

    def __post_init__(self) -> None:
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError(f"task_timeout must be > 0, got {self.task_timeout}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff_base and backoff_max must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError(f"backoff_factor must be >= 1, got {self.backoff_factor}")
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise ValueError(f"backoff_jitter must be in [0, 1], got {self.backoff_jitter}")
        if self.on_failure not in ON_FAILURE_LADDER:
            raise ValueError(
                f"on_failure must be one of {ON_FAILURE_LADDER}, got {self.on_failure!r}"
            )

    @property
    def max_attempts(self) -> int:
        """Total in-pool attempts before the fallback ladder/quarantine."""
        return self.max_retries + 1


def backoff_delay(policy: SupervisePolicy, identity: str, attempt: int) -> float:
    """Deterministic backoff before ``attempt`` (attempt >= 2) of a task.

    A pure function of ``(policy, identity, attempt)``: bounded
    exponential growth with seeded jitter, so a replayed campaign waits
    exactly the same schedule.
    """
    base = policy.backoff_base * policy.backoff_factor ** max(0, attempt - 2)
    delay = min(policy.backoff_max, base)
    if policy.backoff_jitter and delay > 0.0:
        digest = hashlib.sha256(
            f"{policy.seed}:{identity}:{attempt}".encode()
        ).digest()
        u = int.from_bytes(digest[:8], "big") / 2.0**64
        delay *= 1.0 + policy.backoff_jitter * u
    return delay


@dataclass
class TaskFailure:
    """One failed attempt of a supervised task."""

    attempt: int
    kind: str  #: ``crash`` | ``timeout`` | ``error`` | ``fallback:<label>``
    detail: str  #: exit description or formatted traceback


@dataclass
class TaskOutcome:
    """What became of one supervised task, success or quarantine."""

    item: Any
    identity: str
    ok: bool
    value: Any = None
    attempts: int = 0
    failures: List[TaskFailure] = field(default_factory=list)
    #: label of the fallback rung that rescued the task, if any.
    fallback: Optional[str] = None

    @property
    def retries(self) -> int:
        """In-pool attempts beyond the first."""
        return max(0, self.attempts - 1)

    def failure_kinds(self) -> Dict[str, int]:
        """Failure count per kind (``crash``/``timeout``/``error``/...).

        The evidence a health board wants from an outcome: like the
        simulated :class:`repro.faults.reliable.FailureDetector`, this
        reports only *observed* deaths and hangs — there is no
        heartbeat guessing, so a nonzero count is authoritative.  The
        campaign server's per-pool worker health view is built from
        these.
        """
        counts: Dict[str, int] = {}
        for f in self.failures:
            counts[f.kind] = counts.get(f.kind, 0) + 1
        return dict(sorted(counts.items()))

    def quarantine_record(self) -> Dict[str, Any]:
        """The structured ``status: "quarantined"`` record body."""
        reason = self.failures[-1].kind if self.failures else "error"
        return {
            "status": "quarantined",
            "reason": reason,
            "attempts": self.attempts,
            "tracebacks": [
                f"attempt {f.attempt} [{f.kind}]: {f.detail}" for f in self.failures
            ],
        }


# -- fault hooks -------------------------------------------------------------


def maybe_crash(identity: str, env: Optional[Mapping[str, str]] = None) -> None:
    """Die abruptly if :data:`CRASH_ENV` names this task (workers only).

    ``env`` is the environment the supervisor saw at dispatch (default:
    this process's).  ``os._exit`` skips every handler and finalizer —
    the parent sees the same broken pipe a SIGKILL would produce.
    """
    env = os.environ if env is None else env
    if env.get(CRASH_ENV) == identity and in_worker():
        os._exit(17)


_CHAOS_CACHE: Tuple[Optional[str], Dict[str, Dict[str, Any]]] = (None, {})


def chaos_spec(env: Optional[Mapping[str, str]] = None) -> Dict[str, Dict[str, Any]]:
    """The parsed :data:`CHAOS_ENV` schedule (cached per raw value)."""
    global _CHAOS_CACHE
    raw = (os.environ if env is None else env).get(CHAOS_ENV)
    if raw == _CHAOS_CACHE[0]:
        return _CHAOS_CACHE[1]
    spec: Dict[str, Dict[str, Any]] = {}
    if raw:
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError:
            obj = None
        if isinstance(obj, dict):
            spec = {
                str(key): entry for key, entry in obj.items() if isinstance(entry, dict)
            }
    _CHAOS_CACHE = (raw, spec)
    return spec


def maybe_chaos(
    identity: str, attempt: int, env: Optional[Mapping[str, str]] = None
) -> None:
    """Apply the scheduled chaos action for this (task, attempt), if any.

    Only active inside worker processes — the supervisor itself is never
    a chaos target.  ``env`` is as for :func:`maybe_crash`.  ``kill``
    dies abruptly (skipping all finalizers, like a kernel OOM kill),
    ``stop`` SIGSTOPs the worker so it hangs until the supervisor's
    deadline SIGKILLs it, ``raise`` throws :class:`ChaosInjectedError`
    through the task function.
    """
    if not in_worker():
        return
    entry = chaos_spec(env).get(identity)
    if not entry:
        return
    attempts = entry.get("attempts", "all")
    if attempts != "all" and attempt not in attempts:
        return
    action = entry.get("action")
    if action == "kill":
        os._exit(_CHAOS_EXIT)
    elif action == "stop":
        os.kill(os.getpid(), signal.SIGSTOP)
    elif action == "raise":
        raise ChaosInjectedError(
            f"chaos schedule injected a failure for {identity!r} (attempt {attempt})"
        )


# -- the supervised pool ---------------------------------------------------

_T = TypeVar("_T")

#: supervisor poll granularity: the longest the parent sleeps before
#: re-checking deadlines even when no worker has reported.
_POLL_S = 0.1


def _worker_main(
    func: Callable[[Any], Any],
    identity_of: Callable[[Any], str],
    conn: Any,
) -> None:
    """Worker loop: recv ``(task_id, attempt, item, env)``, send the outcome.

    Runs in a forked child, so ``func``/``identity_of`` arrive by
    inheritance (no pickling); ``env`` holds the fault-hook variables
    the supervisor saw at dispatch.  Any exception — including injected
    chaos — is reported as a formatted traceback; an abrupt death is
    seen by the supervisor as EOF on this worker's private pipe.
    """
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        if msg is None:
            return
        task_id, attempt, item, env = msg
        try:
            identity = identity_of(item)
            maybe_crash(identity, env)
            maybe_chaos(identity, attempt, env)
            value = func(item)
        except BaseException:  # noqa: BLE001 - report, never die silently
            payload = (task_id, False, traceback.format_exc())
        else:
            payload = (task_id, True, value)
        try:
            conn.send(payload)
        except (BrokenPipeError, OSError):
            return


class _Worker:
    """One supervised child process with its private duplex pipe."""

    def __init__(self, ctx, func, identity_of) -> None:
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.conn = parent_conn
        self.process = ctx.Process(
            target=_worker_main, args=(func, identity_of, child_conn), daemon=True
        )
        self.process.start()
        child_conn.close()
        self.task: Optional[int] = None
        self.deadline: Optional[float] = None

    def dispatch(
        self, task_id: int, attempt: int, item: Any, deadline: Optional[float]
    ) -> None:
        """Send one attempt with the fault-hook variables as they are now,
        so a long-lived worker never acts on a schedule frozen at fork."""
        self.task = task_id
        self.deadline = deadline
        env = {name: os.environ[name] for name in (CRASH_ENV, CHAOS_ENV) if name in os.environ}
        self.conn.send((task_id, attempt, item, env))

    def alive(self) -> bool:
        return self.process.is_alive()

    def kill(self) -> None:
        """SIGKILL the worker (works on SIGSTOP'd processes too)."""
        try:
            if self.process.pid is not None:
                os.kill(self.process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError, OSError):
            pass
        self.process.join()
        try:
            self.conn.close()
        except OSError:
            pass

    def shutdown(self) -> None:
        """Polite stop: sentinel, short join, then force-kill."""
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout=2.0)
        if self.process.is_alive():
            self.kill()
        else:
            try:
                self.conn.close()
            except OSError:
                pass


class WorkerPool:
    """Supervised fork workers that can outlive one call.

    :func:`supervised_iter_ordered` forks the workers on the first task
    it dispatches; they then live until :meth:`close`, so whatever
    ``func`` memoizes inside a worker stays warm from call to call.
    Task ids come from one counter per pool, so a report can only ever
    complete the attempt it answers.  When a call ends early, only its
    busy workers are killed; their slots are refilled by the next call
    that has work.  A pool runs one call at a time.
    """

    def __init__(
        self, func: Callable[[Any], Any], workers: int, identity: Callable[[Any], str] = str
    ) -> None:
        self.func = func
        self.identity = identity
        self.workers: List[Optional[_Worker]] = [None] * max(
            1, min(workers, available_parallelism())
        )
        #: id of the next task any call admits on this pool.
        self.next_id = 0

    def fill(self) -> None:
        """Fork a worker into every empty slot."""
        for i, w in enumerate(self.workers):
            if w is None:
                self.workers[i] = _Worker(fork_context(), self.func, self.identity)

    def replace(self, w: _Worker) -> _Worker:
        """SIGKILL ``w`` and fork a fresh worker into its slot."""
        w.kill()
        fresh = _Worker(fork_context(), self.func, self.identity)
        self.workers[self.workers.index(w)] = fresh
        return fresh

    def release(self) -> None:
        """End a call: SIGKILL every busy worker, keep the idle ones."""
        for i, w in enumerate(self.workers):
            if w is not None and w.task is not None:
                w.kill()
                self.workers[i] = None

    def close(self) -> None:
        """Stop every worker; a later call forks afresh."""
        self.release()
        for i, w in enumerate(self.workers):
            if w is not None:
                w.shutdown()
                self.workers[i] = None


@dataclass
class _Task:
    item: Any
    identity: str
    attempts: int = 0
    failures: List[TaskFailure] = field(default_factory=list)


def supervised_iter_ordered(
    func: Callable[[_T], Any],
    items: Iterable[_T],
    workers: int,
    policy: Optional[SupervisePolicy] = None,
    *,
    identity: Callable[[_T], str] = str,
    fallbacks: Sequence[Tuple[str, Callable[[_T], Any]]] = (),
    metrics: Optional[MetricsRegistry] = None,
    window_factor: int = 4,
    pool: Optional[WorkerPool] = None,
) -> Iterator[TaskOutcome]:
    """Yield a :class:`TaskOutcome` per item, in submission order.

    ``workers <= 1`` with ``policy=None`` is the plain serial path: each
    item runs in this process, lazily, and a task exception propagates
    unchanged.  Anything else runs on the supervised fork pool under
    ``policy or SupervisePolicy()``: worker deaths, hangs and task
    exceptions are retried per policy, and a task that exhausts every
    attempt (and every ``fallbacks`` rung, tried in the parent process)
    is yielded as a quarantined outcome — unless
    ``policy.on_failure == "raise"``, which raises
    :class:`QuarantinedTaskError`.

    ``pool=None`` builds a :class:`WorkerPool` for this call and closes
    it at the end.  A caller's ``pool`` must be built over the same
    ``func`` and ``identity``, which its workers run; its size overrides
    ``workers``.  It stays open, its idle workers and their memos kept
    for the next call.

    At most ``window_factor * workers`` tasks are admitted beyond the
    oldest unyielded one, so arbitrarily long sweeps hold O(window)
    task state, and ``items`` may be a lazy iterable.  ``metrics``
    receives ``supervise.*`` counters: ``tasks``, ``retries``,
    ``timeouts``, ``worker_crashes``, ``respawns``, ``quarantines``,
    ``fallbacks`` and ``backoff_seconds``.

    Platforms without the ``fork`` start method degrade to an
    in-process loop with retry/fallback/quarantine semantics but no
    timeout enforcement (there is no worker to kill), with a warning.
    """
    if policy is None and workers <= 1:
        for item in items:
            yield TaskOutcome(item, identity(item), ok=True, value=func(item), attempts=1)
        return
    policy = policy or SupervisePolicy()
    m = metrics if metrics is not None else MetricsRegistry()

    def count(name: str, amount: float = 1) -> None:
        m.counter(f"supervise.{name}").inc(amount)

    if fork_context() is None:  # pragma: no cover - platform-dependent
        warnings.warn(
            "multiprocessing 'fork' start method unavailable; supervising "
            "in-process (retries apply, task timeouts cannot be enforced)",
            stacklevel=2,
        )
        yield from _serial_supervised(func, items, policy, identity, fallbacks, count)
        return

    own = pool is None
    if own:
        pool = WorkerPool(func, workers, identity)
    window = max(2, window_factor * len(pool.workers))
    it = iter(items)
    tasks: Dict[int, _Task] = {}
    results: Dict[int, TaskOutcome] = {}
    ready: deque = deque()
    delayed: List[Tuple[float, int]] = []
    next_emit = pool.next_id
    exhausted = False

    def respawn(w: _Worker) -> _Worker:
        count("respawns")
        return pool.replace(w)

    def complete(task_id: int, outcome: TaskOutcome) -> None:
        results[task_id] = outcome
        del tasks[task_id]

    def failure(task_id: int, kind: str, detail: str) -> None:
        t = tasks[task_id]
        t.failures.append(TaskFailure(t.attempts, kind, detail))
        if t.attempts >= policy.max_attempts:
            complete(
                task_id,
                _rescue_or_quarantine(
                    t.item, t.identity, t.attempts, t.failures, fallbacks, policy, count
                ),
            )
        else:
            count("retries")
            delay = backoff_delay(policy, t.identity, t.attempts + 1)
            count("backoff_seconds", delay)
            heapq.heappush(delayed, (time.monotonic() + delay, task_id))

    def handle_report(w: _Worker) -> None:
        task_id = w.task
        try:
            reported_id, ok, payload = w.conn.recv()
        except (EOFError, OSError):
            # The worker died abruptly (SIGKILL, os._exit, segfault) —
            # possibly mid-send, which corrupts only its private pipe.
            count("worker_crashes")
            respawn(w)
            if task_id is not None and task_id in tasks:
                failure(
                    task_id,
                    "crash",
                    f"worker process died abruptly (exitcode "
                    f"{w.process.exitcode})",
                )
            return
        if reported_id != task_id:  # stale: answers an earlier dispatch
            return
        w.task = None
        w.deadline = None
        if ok:
            t = tasks[task_id]
            complete(
                task_id,
                TaskOutcome(
                    t.item, t.identity, ok=True, value=payload,
                    attempts=t.attempts, failures=t.failures,
                ),
            )
        else:
            failure(task_id, "error", payload)

    try:
        while True:
            now = time.monotonic()
            while delayed and delayed[0][0] <= now:
                _, task_id = heapq.heappop(delayed)
                ready.append(task_id)
            while not exhausted and (pool.next_id - next_emit) < window:
                try:
                    item = next(it)
                except StopIteration:
                    exhausted = True
                    break
                tasks[pool.next_id] = _Task(item=item, identity=identity(item))
                ready.append(pool.next_id)
                count("tasks")
                pool.next_id += 1
            if tasks:  # fork on the first task: an empty sweep forks nothing
                pool.fill()
            for w in pool.workers:
                if not ready:
                    break
                if w.task is not None:
                    continue
                if not w.alive():
                    count("worker_crashes")
                    w = respawn(w)
                task_id = ready.popleft()
                t = tasks[task_id]
                t.attempts += 1
                deadline = now + policy.task_timeout if policy.task_timeout else None
                try:
                    w.dispatch(task_id, t.attempts, t.item, deadline)
                except (BrokenPipeError, OSError):
                    count("worker_crashes")
                    respawn(w).dispatch(task_id, t.attempts, t.item, deadline)
            while next_emit in results:
                yield results.pop(next_emit)
                next_emit += 1
            if exhausted and not tasks and next_emit == pool.next_id:
                return
            timeout = _POLL_S
            for w in pool.workers:
                if w.task is not None and w.deadline is not None:
                    timeout = min(timeout, max(0.0, w.deadline - now))
            if delayed:
                timeout = min(timeout, max(0.0, delayed[0][0] - now))
            busy = [w for w in pool.workers if w.task is not None]
            if busy:
                reported = _wait_connections([w.conn for w in busy], timeout)
                for w in busy:
                    if w.conn in reported:
                        handle_report(w)
            elif delayed:
                time.sleep(max(0.0, min(timeout, delayed[0][0] - now)))
            now = time.monotonic()
            for w in list(pool.workers):
                if w.task is None:
                    continue
                if w.deadline is not None and now >= w.deadline:
                    task_id = w.task
                    count("timeouts")
                    respawn(w)
                    failure(
                        task_id,
                        "timeout",
                        f"attempt exceeded task_timeout="
                        f"{policy.task_timeout}s; worker SIGKILLed",
                    )
                elif not w.alive():
                    task_id = w.task
                    count("worker_crashes")
                    exitcode = w.process.exitcode
                    respawn(w)
                    failure(
                        task_id,
                        "crash",
                        f"worker process died abruptly (exitcode {exitcode})",
                    )
    finally:
        if own:
            pool.close()
        else:
            pool.release()


def _serial_supervised(
    func, items, policy, identity, fallbacks, count
) -> Iterator[TaskOutcome]:
    """Fork-less fallback: in-process retries, no timeout enforcement."""
    for item in items:
        ident = identity(item)
        count("tasks")
        failures: List[TaskFailure] = []
        outcome: Optional[TaskOutcome] = None
        for attempt in range(1, policy.max_attempts + 1):
            if attempt > 1:
                count("retries")
                delay = backoff_delay(policy, ident, attempt)
                count("backoff_seconds", delay)
                time.sleep(delay)
            try:
                value = func(item)
            except Exception:  # noqa: BLE001
                failures.append(TaskFailure(attempt, "error", traceback.format_exc()))
                continue
            outcome = TaskOutcome(
                item, ident, ok=True, value=value, attempts=attempt, failures=failures
            )
            break
        if outcome is None:
            outcome = _rescue_or_quarantine(
                item, ident, policy.max_attempts, failures, fallbacks, policy, count
            )
        yield outcome


def _rescue_or_quarantine(
    item, ident, attempts, failures, fallbacks, policy, count
) -> TaskOutcome:
    """Walk the fallback ladder in this process after the last attempt.

    The first rung that succeeds rescues the task; when none does, the
    task is quarantined — or :class:`QuarantinedTaskError` is raised
    under ``on_failure="raise"``.
    """
    for label, fb in fallbacks:
        try:
            value = fb(item)
        except Exception:  # noqa: BLE001 - every rung may fail
            failures.append(
                TaskFailure(attempts, f"fallback:{label}", traceback.format_exc())
            )
            continue
        count("fallbacks")
        return TaskOutcome(
            item, ident, ok=True, value=value, attempts=attempts,
            failures=failures, fallback=label,
        )
    count("quarantines")
    outcome = TaskOutcome(item, ident, ok=False, attempts=attempts, failures=failures)
    if policy.on_failure == "raise":
        raise QuarantinedTaskError(outcome)
    return outcome


def supervised_parallel_map(
    func: Callable[[_T], Any],
    items: Iterable[_T],
    workers: int,
    policy: Optional[SupervisePolicy] = None,
    *,
    identity: Callable[[_T], str] = str,
    fallbacks: Sequence[Tuple[str, Callable[[_T], Any]]] = (),
    metrics: Optional[MetricsRegistry] = None,
) -> List[Any]:
    """Order-preserving supervised map; raises on any quarantined task.

    Figure sweeps cannot tolerate holes — every grid point feeds an
    average — so a task that survives neither the retries nor the
    fallback ladder raises :class:`QuarantinedTaskError` here regardless
    of ``policy.on_failure``.
    """
    out: List[Any] = []
    for outcome in supervised_iter_ordered(
        func, items, workers, policy,
        identity=identity, fallbacks=fallbacks, metrics=metrics,
    ):
        if not outcome.ok:
            raise QuarantinedTaskError(outcome)
        out.append(outcome.value)
    return out
