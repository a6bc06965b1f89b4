"""Host-speed calibration: rescale wall time to a nominal host speed.

A shared host runs the same code at speeds that drift by 20-40% over
seconds to minutes, which would swamp any change a benchmark run is
meant to show.  :class:`HostSpeed` times a fixed reference kernel, which
runs no ``repro`` code, at most every ``REFRESH_S`` seconds of the run,
and :meth:`HostSpeed.scale` multiplies a measured wall time by
``nominal / (latest kernel time)``.  A scaled time reads as host seconds
on a host where the kernel takes its nominal time; a change to the
program moves it, a change in host load mostly does not.  The kernel's
own time is never part of a measured interval.

Each workload names the kernel whose time moves with the host like its
own does (the slope of log workload time on log kernel time, measured
over minutes of drift, is near 1):

* ``array`` — a numpy ``argsort``, a fresh 1 MiB array and a dict loop:
  the array-heavy characterization and replay work (``figures``,
  ``validate_exact``; slope 1.1).
* ``event`` — a heap of small objects and a generator: the event
  runtime behind ``mode="sim"`` (``warm_sweep``; slope 1.0, where
  ``array`` gave 1.4).
* ``http`` — ``array`` plus two localhost HTTP requests to a stdlib
  server, one connection each: request handling across threads
  (``serve_mix``; slope 1.1, where ``array`` alone gave 0.4).
"""

from __future__ import annotations

import heapq
import http.client
import statistics
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Optional

import numpy as np

#: how stale the speed estimate may get before it is measured again.
REFRESH_S = 0.1
#: kernel runs per estimate; the estimate is their mean.
RUNS = 3

_KEYS = np.random.default_rng(0).integers(0, 1 << 20, 10_000)


def _array_kernel() -> None:
    np.argsort(_KEYS, kind="stable")
    np.ones(1 << 17).sum()  # a fresh 1 MiB array: allocation and page faults
    counts: Dict[int, int] = {}
    for i in range(1500):
        counts[i & 1023] = counts.get(i & 1023, 0) + i


class _Event:
    __slots__ = ("time", "value")

    def __init__(self, t: int, value: int) -> None:
        self.time = t
        self.value = value


def _ticks(n: int):
    for i in range(n):
        yield i


def _event_kernel() -> None:
    heap: list = []
    for i in range(400):
        heapq.heappush(heap, ((i * 7919) % 1000, i, _Event(i, i)))
    for _ in _ticks(400):
        pass
    while heap:
        t, _i, ev = heapq.heappop(heap)
        ev.value += t


class _Reply(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self.send_response(200)
        self.send_header("Content-Length", "2")
        self.end_headers()
        self.wfile.write(b"{}")

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass


#: kernel name -> nominal seconds, about the kernel's time on the
#: unloaded 2-vCPU x86 VM the benchmark was tuned on.
NOMINAL_S = {"array": 0.0015, "event": 0.0004, "http": 0.0035}


class HostSpeed:
    """Latest calibration of the host's speed by one reference kernel."""

    def __init__(self, kernel: str) -> None:
        self.kernel = kernel
        self.nominal_s = NOMINAL_S[kernel]
        self._run: Callable[[], None] = _event_kernel if kernel == "event" else _array_kernel
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        if kernel == "http":
            self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), _Reply)
            self._httpd.daemon_threads = True
            self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)
            self._thread.start()
        self._kernel_s = self.nominal_s
        self._measured_at = -float("inf")
        #: every estimate taken, for the run's report.
        self.estimates: list = []

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        self._run()
        if self._httpd is not None:
            port = self._httpd.server_address[1]
            for _ in range(2):
                conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
                try:
                    conn.request("GET", "/")
                    conn.getresponse().read()
                finally:
                    conn.close()
        return time.perf_counter() - t0

    def refresh(self, force: bool = False) -> None:
        """Re-time the kernel if the estimate is older than ``REFRESH_S``."""
        if force or time.perf_counter() - self._measured_at > REFRESH_S:
            self._kernel_s = statistics.fmean(self._kernel() for _ in range(RUNS))
            self._measured_at = time.perf_counter()
            self.estimates.append(self._kernel_s)

    def scale(self, elapsed: float) -> float:
        """``elapsed`` wall seconds as seconds on the nominal host."""
        return elapsed * self.nominal_s / self._kernel_s

    def close(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join()
            self._thread = None
