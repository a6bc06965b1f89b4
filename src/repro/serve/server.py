"""The campaign server: HTTP front end, journal, sharded scheduler.

``repro serve`` turns the simulation pipeline into a long-running
service.  One :class:`CampaignServer` owns four cooperating pieces:

* a :class:`~repro.serve.queue.PointQueue` holding the dedup/claim
  invariants (see that module's docstring);
* a **scheduler thread** that drains the queue in batches and shards
  each batch across one supervised fork pool
  (:class:`repro.core.supervise.WorkerPool`, forked on the first batch
  and kept until :meth:`CampaignServer.stop`, so each worker's
  experiment memo stays warm) — the same timeouts, seeded-backoff
  retries, degradation ladder and quarantine semantics campaign sweeps
  get, so a SIGKILLed worker or a poison point never takes the service
  down;
* a **journal** (``jobs.jsonl``, append + fsync per event) from which
  a restarted server resubmits every journaled job: finished points
  answer from the content store instantly, interrupted ones re-run,
  quarantined ones retry — crash recovery is just dedup replayed;
* a threaded **HTTP server** (stdlib ``http.server``) exposing the
  ``/api/v1`` surface documented in :mod:`repro.serve.protocol` over
  kept-alive HTTP/1.1 connections (``TCP_NODELAY``, closed after
  :data:`_KEEPALIVE_IDLE_S` idle and at :meth:`CampaignServer.stop`).

Observability: every ``serve.*`` counter mutation is funnelled through
the queue lock (the :class:`~repro.obs.metrics.MetricsRegistry`
serialization contract), and the worker-health board aggregates
:meth:`~repro.core.supervise.TaskOutcome.failure_kinds` per outcome —
the same only-observed-failures semantics as the simulated
:class:`repro.faults.reliable.FailureDetector`.
"""

from __future__ import annotations

import dataclasses
import json
import os
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..core.campaign import CampaignContext, CampaignPoint
from ..core.supervise import SupervisePolicy, WorkerPool, supervised_iter_ordered
from ..obs.metrics import MetricsRegistry, summary_prefix
from ..store import ContentStore
from .protocol import API_ROOT, CampaignSpec, ExperimentMemo, SpecError, execute_point
from .queue import Job, PointQueue

__all__ = ["CampaignServer", "STORE_NAMESPACE"]

#: content-store namespace (directory) holding served point records.
STORE_NAMESPACE = "serve-points"

#: scheduler poll period: how long a claim waits before re-checking the
#: shutdown flag when the queue is idle.
_IDLE_WAIT_S = 0.2

#: how long a kept-alive connection may wait for its next request
#: before the server closes it (a client retries that stale-socket
#: case once on a fresh connection).
_KEEPALIVE_IDLE_S = 15.0


#: per-worker-process experiment memo (inherited empty at fork, filled
#: as the worker sees matrices, kept across batches by the server's
#: long-lived pool).
_SERVE_EXPERIMENTS = ExperimentMemo()


def _serve_task(item: Tuple[CampaignPoint, CampaignContext]) -> dict:
    """Pool-worker task: one point against the per-process memo."""
    pt, ctx = item
    return execute_point(pt, ctx, _SERVE_EXPERIMENTS)


def _serve_identity(item: Tuple[CampaignPoint, CampaignContext]) -> str:
    """Supervision identity = the campaign resume key, so chaos
    schedules and quarantine records name points the same way
    ``repro chaos`` and campaign files do."""
    return item[0].key()


class CampaignServer:
    """Simulation-as-a-service over one content store and worker pool."""

    def __init__(
        self,
        data_dir: Path | str,
        workers: int = 2,
        policy: Optional[SupervisePolicy] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        store_root: Optional[Path] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.journal_path = self.data_dir / "jobs.jsonl"
        self.workers = workers
        self.policy = policy if policy is not None else SupervisePolicy(on_failure="serial")
        self.store = ContentStore(root=store_root, namespace=STORE_NAMESPACE)
        self.metrics = MetricsRegistry()
        self.queue = PointQueue(self.store)
        self._wire_counters()
        #: parent-process experiment memo for serial fallbacks.
        self._experiments = ExperimentMemo()
        #: the workers every batch runs on, from the first batch to stop().
        self._pool = WorkerPool(_serve_task, workers, _serve_identity)
        self._host = host
        self._requested_port = port
        self._httpd: Optional[_HTTPServer] = None
        self._http_thread: Optional[threading.Thread] = None
        self._scheduler_thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._journal_enabled = True
        self._journal_lock = threading.Lock()
        self._health_lock = threading.Lock()
        self._health: Dict[str, object] = {
            "batches": 0,
            "tasks": 0,
            "failures": {},
            "rescued": {},
            "quarantined": 0,
        }

    # -- metrics wiring (every serve.* mutation under the queue lock) ----

    def _wire_counters(self) -> None:
        count = lambda name: self.metrics.counter(name)  # noqa: E731
        # Pre-register the headline counters so /metrics always carries
        # them (an idle or freshly-recovered server reports 0, not
        # absence — dashboards and the dedup assertions key off these).
        for name in (
            "serve.jobs_submitted",
            "serve.jobs_done",
            "serve.dedup_hits",
            "serve.points_enqueued",
            "serve.simulations",
            "serve.quarantines",
            "serve.predictions",
        ):
            count(name)
        self.queue.on_submit = lambda job: count("serve.jobs_submitted").inc()
        self.queue.on_dedup_hit = lambda: count("serve.dedup_hits").inc()
        self.queue.on_enqueue = lambda: count("serve.points_enqueued").inc()
        self.queue.on_predict = lambda: count("serve.predictions").inc()

        def on_complete(quarantined: bool) -> None:
            if quarantined:
                count("serve.quarantines").inc()
            else:
                count("serve.simulations").inc()

        self.queue.on_complete = on_complete

        def on_job_done(job: Job) -> None:
            count("serve.jobs_done").inc()
            self._journal({"event": "done", "job_id": job.job_id, **job.counts()})

        self.queue.on_job_done = on_job_done

    # -- journal ---------------------------------------------------------

    def _journal(self, event: Dict[str, object]) -> None:
        """One durable journal line (write, flush, fsync)."""
        if not self._journal_enabled:
            return
        with self._journal_lock:
            with open(self.journal_path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(event) + "\n")
                fh.flush()
                os.fsync(fh.fileno())

    def _recover(self) -> int:
        """Resubmit every journaled job; returns how many were recovered.

        Completed jobs replay entirely as store hits (their records are
        sealed on disk), interrupted jobs resume from their first
        missing point, and quarantined points retry — the same
        store-first admission path as a live submission, so recovery
        needs no special cases.  A truncated trailing line (fsync cut
        by the crash) is skipped, like campaign files tolerate.
        """
        if not self.journal_path.exists():
            return 0
        specs: Dict[str, CampaignSpec] = {}
        with open(self.journal_path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    event = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn trailing write
                if not isinstance(event, dict):
                    continue
                if event.get("event") == "submit":
                    try:
                        specs[str(event["job_id"])] = CampaignSpec.from_wire(
                            event.get("spec")
                        )
                    except (KeyError, SpecError):
                        continue  # journaled under an older schema
        self._journal_enabled = False
        try:
            for job_id, spec in specs.items():
                self.queue.submit(spec, job_id=job_id)
        finally:
            self._journal_enabled = True
        return len(specs)

    # -- submission ------------------------------------------------------

    def submit(self, spec: CampaignSpec) -> Job:
        """Journal then admit one spec (the POST /jobs implementation)."""
        job = self.queue.submit(spec)
        self._journal(
            {"event": "submit", "job_id": job.job_id, "spec": spec.to_wire()}
        )
        return job

    # -- scheduler -------------------------------------------------------

    def _fallbacks(self):
        """The graceful-degradation ladder of :meth:`Campaign._fallbacks`,
        itemized: each rung receives the ``(point, context)`` pair so one
        pool can shard points of different jobs (different contexts)."""
        ladder = []
        if self.policy.on_failure in ("serial", "model"):
            ladder.append(
                (
                    "serial",
                    lambda item: execute_point(item[0], item[1], self._experiments),
                )
            )
        if self.policy.on_failure == "model":

            def model_rung(item):
                pt, ctx = item
                if ctx.mode != "model":
                    ctx = dataclasses.replace(ctx, mode="model", fault_plan=None)
                return execute_point(pt, ctx, self._experiments)

            ladder.append(("model", model_rung))
        return ladder

    def _run_batch(
        self, batch: List[Tuple[str, CampaignPoint, CampaignContext]]
    ) -> None:
        """Shard one claimed batch across the supervised pool.

        Outcome handling mirrors :meth:`Campaign.run`: a
        successful value completes its key (persisting unless a
        model-mode fallback changed the record's meaning), an exhausted
        task completes as a quarantine record — fanned out to waiters
        but never stored, so the point stays retryable.
        """
        items = [(pt, ctx) for _key, pt, ctx in batch]
        keys = [key for key, _pt, _ctx in batch]
        # The board is updated per outcome *before* the key completes:
        # once a job's last point resolves (unblocking waiting clients),
        # every failure behind it is already visible at /metrics.
        with self._health_lock:
            self._health["batches"] = int(self._health["batches"]) + 1
            self._health["tasks"] = int(self._health["tasks"]) + len(batch)
        try:
            for key, (pt, _ctx), outcome in zip(
                keys,
                items,
                supervised_iter_ordered(
                    _serve_task,
                    items,
                    self.workers,
                    self.policy,
                    identity=_serve_identity,
                    fallbacks=self._fallbacks(),
                    metrics=self.metrics,
                    pool=self._pool,
                ),
            ):
                with self._health_lock:
                    failures: Dict[str, int] = self._health["failures"]  # type: ignore[assignment]
                    for kind, n in outcome.failure_kinds().items():
                        failures[kind] = failures.get(kind, 0) + n
                    if outcome.ok and outcome.fallback:
                        rescued: Dict[str, int] = self._health["rescued"]  # type: ignore[assignment]
                        rescued[outcome.fallback] = rescued.get(outcome.fallback, 0) + 1
                    if not outcome.ok:
                        self._health["quarantined"] = (
                            int(self._health["quarantined"]) + 1
                        )
                if outcome.ok:
                    self.queue.complete(
                        key,
                        outcome.value,
                        persist=outcome.fallback != "model",
                    )
                else:
                    rec = outcome.quarantine_record()
                    rec.update(
                        {
                            "matrix_id": pt.mid,
                            "n_cores": pt.n_cores,
                            "config": pt.config,
                            "mapping": pt.mapping,
                            "kernel": pt.kernel,
                        }
                    )
                    self.queue.complete(key, rec, quarantined=True)
        finally:
            # Keys a dying pool left claimed go back to pending so the
            # next scheduler pass retries them (no point is ever lost).
            for key in keys:
                self.queue.release(key)

    def _scheduler(self) -> None:
        while not self._stop.is_set():
            batch = self.queue.claim_batch(timeout=_IDLE_WAIT_S)
            if not batch:
                continue
            self._run_batch(batch)

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        """Recover the journal, bind the port, start both threads."""
        self._recover()
        handler = _make_handler(self)
        self._httpd = _HTTPServer((self._host, self._requested_port), handler)
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever, name="serve-http", daemon=True
        )
        self._scheduler_thread = threading.Thread(
            target=self._scheduler, name="serve-scheduler", daemon=True
        )
        self._http_thread.start()
        self._scheduler_thread.start()

    def stop(self) -> None:
        """Stop accepting work and wait for both threads to exit.

        In-flight batch work finishes (the scheduler checks the stop
        flag between batches, never mid-batch), so completed records
        are persisted and journaled before the process exits.  Then the
        worker pool shuts down, and the HTTP server ends its kept-alive
        connections and waits for their handlers.
        """
        self._stop.set()
        self.queue.wake()
        if self._scheduler_thread is not None:
            self._scheduler_thread.join()
            self._scheduler_thread = None
        self._pool.close()
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.close_connections()
            self._httpd.server_close()
            self._httpd = None
        if self._http_thread is not None:
            self._http_thread.join()
            self._http_thread = None

    @property
    def port(self) -> int:
        if self._httpd is None:
            raise RuntimeError("server is not running")
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self._host}:{self.port}"

    # -- read-side views (HTTP handlers call these) ----------------------

    def healthz(self) -> Dict[str, object]:
        return {
            "ok": True,
            **self.queue.depth(),
            "workers": self.workers,
            "store_entries": self.store.entry_count(),
            "store_corrupt": self.store.corrupt_count(),
        }

    def metrics_view(self) -> Dict[str, object]:
        flat = self.metrics.flat_summary()
        with self._health_lock:
            health = json.loads(json.dumps(self._health))
        return {
            "serve": summary_prefix(flat, "serve"),
            "supervise": summary_prefix(flat, "supervise"),
            "worker_health": health,
        }


# -- the HTTP layer --------------------------------------------------------


class _HTTPServer(ThreadingHTTPServer):
    """A threaded HTTP server that knows its open connections.

    A kept-alive connection holds its (daemon) handler thread until the
    client closes it or it idles out, and ``server_close()`` joins no
    daemon thread.  :meth:`close_connections` ends them all and waits
    until every handler has closed its socket.  Sockets are registered
    in ``process_request``, on the accepting thread, so none accepted
    before ``shutdown()`` returns can be missed.
    """

    daemon_threads = True

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._open_changed = threading.Condition()
        self._open: set = set()

    def process_request(self, request, client_address) -> None:
        with self._open_changed:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        super().shutdown_request(request)
        with self._open_changed:
            self._open.discard(request)
            self._open_changed.notify_all()

    def close_connections(self) -> None:
        """Shut the read side of every open connection and wait for its
        handler to finish: one waiting for its next request reads EOF at
        once, one in the middle of a reply completes it first."""
        with self._open_changed:
            for sock in self._open:
                try:
                    sock.shutdown(socket.SHUT_RD)
                except OSError:
                    pass  # not connected any more; its handler is ending
            self._open_changed.wait_for(lambda: not self._open, _KEEPALIVE_IDLE_S)


def _make_handler(server: CampaignServer):
    """A request handler class bound to one :class:`CampaignServer`."""

    class Handler(BaseHTTPRequestHandler):
        # Route table lives in do_GET/do_POST below; every response is
        # JSON, every error is ``{"error": ...}`` with a proper status.
        protocol_version = "HTTP/1.1"
        # Headers and body leave in two sends; with Nagle's algorithm on,
        # the body of every reply on a reused connection waits out the
        # client's delayed ACK (~40 ms).
        disable_nagle_algorithm = True
        timeout = _KEEPALIVE_IDLE_S

        def log_message(self, format: str, *args) -> None:  # noqa: A002
            pass  # the service speaks through /metrics, not stderr

        def _reply(self, status: int, body: Dict[str, object]) -> None:
            self._send(status, json.dumps(body))

        def _send(self, status: int, text: str) -> None:
            data = text.encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            if self.close_connection:
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(data)

        def _job_or_404(self, job_id: str) -> Optional[Job]:
            job = server.queue.job(job_id)
            if job is None:
                self._reply(404, {"error": f"unknown job {job_id!r}"})
            return job

        def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
            path = self.path.rstrip("/")
            if path == f"{API_ROOT}/healthz":
                self._reply(200, server.healthz())
            elif path == f"{API_ROOT}/metrics":
                self._reply(200, server.metrics_view())
            elif path == f"{API_ROOT}/jobs":
                self._reply(
                    200, {"jobs": [job.summary() for job in server.queue.jobs()]}
                )
            elif path.startswith(f"{API_ROOT}/jobs/"):
                rest = path[len(f"{API_ROOT}/jobs/"):]
                if rest.endswith("/result"):
                    job = self._job_or_404(rest[: -len("/result")])
                    if job is None:
                        return
                    if not job.done.is_set():
                        self._reply(
                            409,
                            {
                                "error": f"job {job.job_id!r} is {job.state}",
                                **job.summary(),
                            },
                        )
                        return
                    # Splice the frozen records in: the same bytes as
                    # json.dumps({**summary, "records": ..., "origins": ...}).
                    self._send(
                        200,
                        json.dumps(job.summary())[:-1]
                        + ', "records": '
                        + job.frozen
                        + ', "origins": '
                        + json.dumps(job.origins)
                        + "}",
                    )
                else:
                    job = self._job_or_404(rest)
                    if job is not None:
                        self._reply(200, job.summary())
            else:
                self._reply(404, {"error": f"unknown path {self.path!r}"})

        def _read_body(self) -> Optional[bytes]:
            """The request body, read in full before any routing, so the
            next request on a kept-alive connection starts where the
            client sent it.  Without a usable ``Content-Length`` that
            start is unknown: returns None and closes the connection
            after the reply."""
            try:
                length = int(self.headers["Content-Length"])
            except (TypeError, ValueError):
                length = -1
            if length < 0:
                self.close_connection = True
                return None
            return self.rfile.read(length)

        def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
            raw = self._read_body()
            if self.path.rstrip("/") != f"{API_ROOT}/jobs":
                self._reply(404, {"error": f"unknown path {self.path!r}"})
                return
            try:
                body = json.loads(raw or b"null")
            except ValueError:
                self._reply(400, {"error": "request body must be JSON"})
                return
            if not isinstance(body, dict) or "spec" not in body:
                self._reply(400, {"error": 'request body must be {"spec": {...}}'})
                return
            try:
                spec = CampaignSpec.from_wire(body["spec"])
            except SpecError as exc:
                self._reply(400, {"error": str(exc)})
                return
            job = server.submit(spec)
            self._reply(200, job.summary())

    return Handler
