"""Thin stdlib HTTP client for the campaign server.

``repro submit`` / ``repro status`` / ``repro result`` and the service
test suite all speak to a running server through this class, so the
tests exercise exactly the code path a user does (black-box testing —
nothing reaches into server internals).

Connections are kept alive between requests: a client holds a small
stack of idle ``HTTPConnection``s, takes one (or opens one) per request
and puts it back once the response is read.  A reused connection the
server has since closed (idle timeout, restart) fails before any
response byte arrives; only that case is retried, once, on a fresh
connection.  :meth:`ServeClient.close` (or a ``with`` block) closes the
idle connections.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from typing import Dict, List, Optional, Tuple
from urllib.parse import urlsplit

from .protocol import API_ROOT, CampaignSpec

__all__ = ["ServeError", "ServeClient"]


class ServeError(RuntimeError):
    """A non-2xx response from the server (carries status and body)."""

    def __init__(self, status: int, body: Dict[str, object]) -> None:
        self.status = status
        self.body = body
        super().__init__(f"HTTP {status}: {body.get('error', body)}")


class ServeClient:
    """One server address over kept-alive connections (thread-safe)."""

    def __init__(self, url: str, timeout: float = 30.0) -> None:
        parts = urlsplit(url if "//" in url else f"http://{url}")
        if parts.scheme not in ("", "http") or not parts.hostname:
            raise ValueError(f"unsupported server url {url!r} (need http://host:port)")
        self.host = parts.hostname
        self.port = parts.port or 80
        self.timeout = timeout
        self._lock = threading.Lock()
        self._idle: List[http.client.HTTPConnection] = []

    def __enter__(self) -> ServeClient:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Close every idle connection (a later request opens a new one)."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)

    def _request(
        self, method: str, path: str, body: Optional[Dict] = None
    ) -> Tuple[int, Dict[str, object]]:
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        with self._lock:
            conn = self._idle.pop() if self._idle else None
        reused = conn is not None
        if conn is None:
            conn = self._connect()
        try:
            try:
                conn.request(method, path, body=payload, headers=headers)
                resp = conn.getresponse()
            except (ConnectionResetError, BrokenPipeError):
                # A reused socket the server has closed fails here, before
                # any response byte (RemoteDisconnected is a
                # ConnectionResetError): the one case retried.
                if not reused:
                    raise
                conn.close()
                conn = self._connect()
                conn.request(method, path, body=payload, headers=headers)
                resp = conn.getresponse()
            data = resp.read()
        except BaseException:
            conn.close()
            raise
        if resp.will_close:
            conn.close()
        else:
            with self._lock:
                self._idle.append(conn)
        try:
            decoded = json.loads(data) if data else {}
        except json.JSONDecodeError:
            decoded = {"error": data.decode(errors="replace")}
        return resp.status, decoded

    def _ok(self, method: str, path: str, body: Optional[Dict] = None) -> Dict:
        status, decoded = self._request(method, path, body)
        if status != 200:
            raise ServeError(status, decoded)
        return decoded

    # -- API surface -----------------------------------------------------

    def submit(self, spec: CampaignSpec) -> Dict[str, object]:
        """POST the spec; returns the job summary (raises on a 400)."""
        return self._ok("POST", f"{API_ROOT}/jobs", {"spec": spec.to_wire()})

    def jobs(self) -> List[Dict[str, object]]:
        return self._ok("GET", f"{API_ROOT}/jobs")["jobs"]  # type: ignore[return-value]

    def status(self, job_id: str) -> Dict[str, object]:
        return self._ok("GET", f"{API_ROOT}/jobs/{job_id}")

    def result(self, job_id: str) -> Dict[str, object]:
        """The finished job's records; raises :class:`ServeError` 409
        while the job is still queued or running."""
        return self._ok("GET", f"{API_ROOT}/jobs/{job_id}/result")

    def metrics(self) -> Dict[str, object]:
        return self._ok("GET", f"{API_ROOT}/metrics")

    def healthz(self) -> Dict[str, object]:
        return self._ok("GET", f"{API_ROOT}/healthz")

    def wait(
        self, job_id: str, timeout: float = 300.0, poll_s: float = 0.05
    ) -> Dict[str, object]:
        """Poll until the job is done; returns its result body."""
        deadline = time.monotonic() + timeout
        while True:
            status, decoded = self._request("GET", f"{API_ROOT}/jobs/{job_id}/result")
            if status == 200:
                return decoded
            if status != 409:
                raise ServeError(status, decoded)
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id!r} not done after {timeout}s: {decoded}"
                )
            time.sleep(poll_s)
