"""Per-layer host-time spans, recorded from outside the program.

The traced run (``run.py --trace 1``) wraps the public functions each
layer exposes and records, per span name, a call count, busy seconds
and self seconds (busy time minus the part of it spent in other
recorded spans called from inside).  Nothing inside ``repro`` changes:
:meth:`Layers.install` rebinds every name a caller actually uses — a
module that did ``from .trace import characterize_partition`` holds
its own binding, which is replaced too — and :meth:`Layers.uninstall`
puts the originals back.

Spans are accumulated per *phase* (``"setup"`` or ``"body"``); while
the phase is ``None`` (output checks) the wrappers call straight
through and record nothing.  Calls made inside forked worker processes
are not seen: their counts die with the worker.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (span name, module, attribute path).  A dotted attribute path names a
#: method, rebound on its class; a plain name is a module-level function,
#: rebound in every loaded ``repro`` module that holds the same object.
SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("sparse.build", "repro.sparse.suite", "build_matrix"),
    ("sparse.partition", "repro.sparse.partition", "partition_rows_balanced"),
    ("trace.characterize", "repro.core.trace", "characterize_partition"),
    ("locality.mrc", "repro.scc.locality", "miss_ratio_curve"),
    ("fastpath.summaries", "repro.sparse.fastpath", "batch_traces"),
    ("fastpath.summaries", "repro.sparse.fastpath", "batch_access_summaries"),
    ("timing.solve", "repro.core.timing", "solve_core_times"),
    ("timing.solve_batched", "repro.core.timing", "solve_core_times_batched"),
    ("timing.barrier", "repro.core.timing", "barrier_exit_times"),
    ("experiment.run", "repro.core.experiment", "SpMVExperiment.run"),
    ("rcce.run", "repro.rcce.runtime", "RCCERuntime.run"),
    ("replay", "repro.scc.tracegen", "replay_trace"),
    ("replay.trace_gen", "repro.scc.tracegen", "spmv_address_trace"),
    ("vecreplay.access", "repro.scc.vecreplay", "VectorCacheHierarchy.access_lines"),
    ("vecreplay.access", "repro.scc.vecreplay", "VectorCacheHierarchy.access_trace"),
    ("store.get", "repro.store", "ContentStore.get_json"),
    ("store.get", "repro.store", "ContentStore.get_arrays"),
    ("store.put", "repro.store", "ContentStore.put_json"),
    ("store.put", "repro.store", "ContentStore.put_arrays"),
    ("predict.train", "repro.predict.train", "train_predictor"),
    ("features", "repro.sparse.features", "matrix_features"),
    ("features", "repro.sparse.features", "partition_features"),
    ("features", "repro.sparse.features", "point_features"),
    ("predict.infer", "repro.predict.regressor", "PerfRegressor.predict_makespan"),
    ("serve.admit", "repro.serve.queue", "PointQueue.submit"),
    ("serve.complete", "repro.serve.queue", "PointQueue.complete"),
    ("serve.claim", "repro.serve.queue", "PointQueue.claim_batch"),
    ("serve.http", "repro.serve.client", "ServeClient._request"),
    ("serve.wait", "repro.serve.client", "ServeClient.wait"),
)

#: generator functions: timed across every ``next()``, bound only in the
#: named module (the server's binding, not campaigns' or figures').
GENERATOR_SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("supervise.batch", "repro.serve.server", "supervised_iter_ordered"),
)


class _Stat:
    __slots__ = ("calls", "busy", "child", "extra")

    def __init__(self) -> None:
        self.calls = 0
        self.busy = 0.0
        self.child = 0.0
        self.extra = 0.0


class Layers:
    """Span recorder plus the install/uninstall of its wrappers."""

    def __init__(self) -> None:
        self.phase: Optional[str] = None
        self.stats: Dict[str, Dict[str, _Stat]] = {"setup": {}, "body": {}}
        #: (admitted job id, admission time) per enqueued store key.
        self._admitted: Dict[str, List[Tuple[str, float]]] = {}
        self._claimed_jobs: set = set()
        #: per phase: seconds from admission to the claim of a job's first point.
        self.queue_waits: Dict[str, List[float]] = {"setup": [], "body": []}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> List[List[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, phase: str, name: str, elapsed: float, child: float, extra: float) -> None:
        with self._lock:
            st = self.stats[phase].setdefault(name, _Stat())
            st.calls += 1
            st.busy += elapsed
            st.child += child
            st.extra += extra

    def _close(self, stack: List[List[Any]], frame: List[Any], phase: str, name: str,
               elapsed: float, extra: float) -> None:
        stack.pop()
        if stack:
            stack[-1][1] += elapsed
        self._record(phase, name, elapsed, frame[1], extra)

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """A wrapper recording span ``name`` around ``fn``.

        A call made while a span of the same name is already open in
        this thread (``access_trace`` calling ``access_lines``) is not
        recorded again.  ``after(args, kwargs, result)`` returns an
        extra quantity summed into the span (accesses, events, hits).
        """
        layers = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            phase = layers.phase
            stack = layers._stack()
            if phase is None or any(frame[0] == name for frame in stack):
                return fn(*args, **kwargs)
            span_name = name
            if name == "experiment.run":
                span_name = f"experiment.run.{_run_mode(args, kwargs)}"
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                layers._close(stack, frame, phase, span_name, time.perf_counter() - t0, 0.0)
                raise
            elapsed = time.perf_counter() - t0
            extra = after(args, kwargs, result) if after is not None else 0.0
            layers._close(stack, frame, phase, span_name, elapsed, extra)
            return result

        return wrapper

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        """A wrapper timing every ``next()`` of the generator ``fn`` returns."""
        layers = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            phase = layers.phase
            gen = fn(*args, **kwargs)
            if phase is None:
                return gen
            return _timed(gen, layers, phase, name)

        return wrapper

    # -- serve queue-wait bookkeeping --------------------------------------

    def _after_admit(self, args: Tuple, kwargs: Dict, job: Any) -> float:
        now = time.perf_counter()
        with self._lock:
            for key, origin in zip(job.keys, job.origins):
                if origin is None:
                    self._admitted.setdefault(key, []).append((job.job_id, now))
        return 0.0

    def _after_claim(self, args: Tuple, kwargs: Dict, batch: Any) -> float:
        now = time.perf_counter()
        waits = self.queue_waits.get(self.phase or "", [])
        with self._lock:
            for key, _pt, _ctx in batch:
                for job_id, admitted in self._admitted.pop(key, []):
                    if job_id not in self._claimed_jobs:
                        self._claimed_jobs.add(job_id)
                        waits.append(now - admitted)
        return 0.0

    # -- install / uninstall -----------------------------------------------

    def install(self) -> None:
        """Rebind every traced name; import the modules that hold them first."""
        for mod in {m for _n, m, _a in SPANS + GENERATOR_SPANS} | _CALLERS:
            importlib.import_module(mod)
        afters: Dict[str, Callable] = {
            "rcce.run": lambda a, k, r: float(a[0].sim.events_handled),
            "replay": lambda a, k, r: float(r.accesses),
            "store.get": lambda a, k, r: float(r is not None),
            "serve.admit": self._after_admit,
            "serve.claim": self._after_claim,
            "serve.http": lambda a, k, r: float(str(a[2]).endswith("/result")),
        }
        for name, module, attr in SPANS:
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(sys.modules[module], cls_name)
                self._set(cls, meth, self.wrap(name, vars(cls)[meth], afters.get(name)))
                continue
            original = getattr(sys.modules[module], attr)
            wrapped = self.wrap(name, original, afters.get(name))
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("repro") and (
                    vars(mod).get(attr) is original
                ):
                    self._set(mod, attr, wrapped)
            # The experiment's partitioner table holds its own reference.
            table = sys.modules["repro.core.experiment"].SpMVExperiment.PARTITIONERS
            for key, value in list(table.items()):
                if value is original:
                    self._undo.append((table, key, value))
                    table[key] = wrapped
        for name, module, attr in GENERATOR_SPANS:
            mod = sys.modules[module]
            self._set(mod, attr, self.wrap_generator(name, getattr(mod, attr)))

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._undo.clear()


#: modules that bind traced names by ``from ... import``; imported before
#: the scan so their bindings exist to be rebound.
_CALLERS = {
    "repro.sparse",
    "repro.core.figures",
    "repro.core.campaign",
    "repro.core.experiment",
    "repro.predict.dataset",
    "repro.serve.server",
    "repro.cli",
}


def _run_mode(args: Tuple, kwargs: Dict) -> str:
    """The ``mode`` of one ``SpMVExperiment.run`` call (default ``sim``)."""
    if "mode" in kwargs:
        return str(kwargs["mode"])
    return str(args[10]) if len(args) > 10 else "sim"


def _timed(gen: Any, layers: Layers, phase: str, name: str) -> Any:
    busy = 0.0
    try:
        while True:
            t0 = time.perf_counter()
            try:
                item = next(gen)
            except StopIteration:
                busy += time.perf_counter() - t0
                return
            busy += time.perf_counter() - t0
            yield item
    finally:
        gen.close()
        layers._record(phase, name, busy, 0.0, 0.0)


#: experiment modes reported by ``experiment.run_s.<mode>``.
MODES = ("model", "sim", "exact-trace", "predict")

#: span-derived metrics also reported for the set-up phase, as
#: ``setup.<name>``: the layers whose work set-up moves.
SETUP_METRICS = (
    "sparse.build_s",
    "sparse.build_calls",
    "sparse.partition_s",
    "trace.characterize_s",
    "trace.characterize_calls",
    "locality.mrc_s",
    "locality.mrc_calls",
    "store.get_s",
    "store.get_calls",
    "store.hit_ratio",
    "store.put_s",
    "store.put_calls",
    "predict.train_s",
    "features.s",
    "features.calls",
)


def phase_metrics(layers: Layers, phase: str) -> Dict[str, float]:
    """The span-derived per-layer metrics of one phase."""
    stats = layers.stats[phase]

    def st(name: str) -> _Stat:
        return stats.get(name) or _Stat()

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: Dict[str, float] = {}
    for prefix, span in (
        ("sparse.build", "sparse.build"),
        ("trace.characterize", "trace.characterize"),
        ("locality.mrc", "locality.mrc"),
        ("fastpath.summaries", "fastpath.summaries"),
        ("timing.solve", "timing.solve"),
        ("timing.solve_batched", "timing.solve_batched"),
        ("timing.barrier", "timing.barrier"),
        ("store.get", "store.get"),
        ("store.put", "store.put"),
        ("predict.infer", "predict.infer"),
    ):
        out[f"{prefix}_s"] = st(span).busy
        out[f"{prefix}_calls"] = float(st(span).calls)
    out["sparse.partition_s"] = st("sparse.partition").busy
    self_s = 0.0
    for mode in MODES:
        run = st(f"experiment.run.{mode}")
        out[f"experiment.run_s.{mode}"] = run.busy
        out[f"experiment.run_calls.{mode}"] = float(run.calls)
        self_s += run.busy - run.child
    out["experiment.self_s"] = self_s
    rcce = st("rcce.run")
    out["rcce.run_s"] = rcce.busy
    out["sim.events"] = rcce.extra
    out["sim.us_per_event"] = ratio(rcce.busy * 1e6, rcce.extra)
    replay = st("replay")
    out["replay.s"] = replay.busy
    out["replay.calls"] = float(replay.calls)
    out["replay.accesses"] = replay.extra
    out["replay.trace_gen_s"] = st("replay.trace_gen").busy
    out["vecreplay.access_s"] = st("vecreplay.access").busy
    out["store.hit_ratio"] = ratio(st("store.get").extra, st("store.get").calls)
    out["predict.train_s"] = st("predict.train").busy
    out["features.s"] = st("features").busy
    out["features.calls"] = float(st("features").calls)
    out["serve.admit_s"] = st("serve.admit").busy
    out["serve.complete_s"] = st("serve.complete").busy
    out["serve.claim_calls"] = float(st("serve.claim").calls)
    out["serve.http_requests"] = float(st("serve.http").calls)
    out["serve.polls_per_job"] = ratio(st("serve.http").extra, st("serve.wait").calls)
    waits = layers.queue_waits[phase]
    out["serve.queue_wait_s"] = ratio(sum(waits), len(waits))
    out["supervise.batch_s"] = st("supervise.batch").busy
    out["supervise.batches"] = float(st("supervise.batch").calls)
    return out


def per_layer_metrics(layers: Layers) -> Dict[str, float]:
    """Body-phase metrics under their own names, set-up ones as ``setup.*``."""
    out = phase_metrics(layers, "body")
    setup = phase_metrics(layers, "setup")
    out.update({f"setup.{name}": setup[name] for name in SETUP_METRICS})
    return out
