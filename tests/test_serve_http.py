"""The campaign server's HTTP layer over kept-alive connections.

A reused connection must answer at once (no Nagle/delayed-ACK stall),
stay in step after a request whose body the route never needed, and
end when the server stops.  A :class:`ServeClient` must reuse one
connection, survive a server restart on the same port, and keep each
thread's answers apart when threads share it.
"""

from __future__ import annotations

import http.client
import json
import socket
import sys
import threading
import time

import pytest

from repro.core.supervise import fork_context
from repro.serve import CampaignServer, CampaignSpec, ServeClient

SCALE = 0.05
ITERATIONS = 2


@pytest.fixture()
def server(tmp_path):
    srv = CampaignServer(tmp_path / "serve-data", workers=1)
    srv.start()
    yield srv
    srv.stop()


def _spec(n_cores: int = 1) -> CampaignSpec:
    return CampaignSpec(
        ids=(24,),
        core_counts=(n_cores,),
        scale=SCALE,
        iterations=ITERATIONS,
        mode="model",
    )


def test_reused_connection_answers_without_a_nagle_stall(server):
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=5.0)
    try:
        t0 = time.perf_counter()
        for _ in range(10):
            conn.request("GET", "/api/v1/healthz")
            resp = conn.getresponse()
            assert resp.status == 200
            resp.read()
        elapsed = time.perf_counter() - t0
    finally:
        conn.close()
    # Each stalled reply waits out a ~40 ms delayed ACK: >= 0.4 s for 10.
    assert elapsed < 0.2, f"10 kept-alive GETs took {elapsed:.3f} s"


def test_unrouted_post_body_is_drained_before_the_next_request(server):
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=5.0)
    try:
        conn.request(
            "POST",
            "/api/v1/nope",
            body=json.dumps({"spec": {"ids": [24]}}).encode(),
            headers={"Content-Type": "application/json"},
        )
        resp = conn.getresponse()
        assert resp.status == 404
        assert "unknown path" in json.loads(resp.read())["error"]
        assert not resp.will_close
        conn.request("GET", "/api/v1/healthz")
        resp = conn.getresponse()
        assert resp.status == 200
        assert json.loads(resp.read())["ok"] is True
    finally:
        conn.close()


@pytest.mark.parametrize(
    "length_header", [b"", b"Content-Length: soon\r\n", b"Content-Length: -3\r\n"]
)
@pytest.mark.parametrize("path", [b"/api/v1/nope", b"/api/v1/jobs"])
def test_post_without_a_usable_length_closes_the_connection(
    server, path, length_header
):
    request = b"POST " + path + b" HTTP/1.1\r\nHost: x\r\n" + length_header + b"\r\n"
    with socket.create_connection(("127.0.0.1", server.port), timeout=5.0) as sock:
        sock.sendall(request)
        resp = http.client.HTTPResponse(sock)
        resp.begin()
        assert resp.status == (404 if path.endswith(b"nope") else 400)
        assert "error" in json.loads(resp.read())
        assert resp.headers["Connection"] == "close"
        assert sock.recv(1) == b"", "the server kept the connection open"
        resp.close()
    with ServeClient(server.url) as client:
        assert client.jobs() == []


def test_one_client_opens_one_connection(server):
    opened = []
    original = server._httpd.process_request

    def counting(request, client_address):
        opened.append(client_address)
        original(request, client_address)

    server._httpd.process_request = counting
    with ServeClient(server.url) as client:
        for _ in range(10):
            assert client.healthz()["ok"] is True
            assert client.jobs() == []
            assert client.metrics()["serve"]["jobs_submitted"] == 0.0
    assert len(opened) == 1


def test_stop_ends_kept_alive_connections(tmp_path):
    before = threading.active_count()
    server = CampaignServer(tmp_path / "serve-data", workers=1)
    server.start()
    client = ServeClient(server.url)
    try:
        for _ in range(3):
            assert client.healthz()["ok"] is True
        stopper = threading.Thread(target=server.stop)
        t0 = time.monotonic()
        stopper.start()
        stopper.join(timeout=10.0)
        assert not stopper.is_alive(), "stop() blocked on a kept-alive connection"
        while threading.active_count() > before and time.monotonic() - t0 < 1.0:
            time.sleep(0.01)
        assert threading.active_count() == before
    finally:
        client.close()


@pytest.mark.skipif(
    fork_context() is None,
    reason="the campaign server's supervised pool needs the fork start method",
)
def test_client_survives_a_server_restart_on_the_same_port(tmp_path):
    first = CampaignServer(tmp_path / "first", workers=1)
    first.start()
    port = first.port
    client = ServeClient(first.url)
    try:
        assert client.healthz()["ok"] is True
        first.stop()
        second = CampaignServer(tmp_path / "second", workers=1, port=port)
        second.start()
        try:
            # The client's kept connection died with the first server:
            # the POST goes out once more on a fresh connection.
            job = client.submit(_spec())
            result = client.wait(str(job["job_id"]), timeout=300.0)
            assert result["state"] == "done"
            assert [j["job_id"] for j in client.jobs()] == [job["job_id"]]
            assert client.metrics()["serve"]["jobs_submitted"] == 1.0
        finally:
            second.stop()
    finally:
        client.close()


@pytest.mark.skipif(
    fork_context() is None,
    reason="the campaign server's supervised pool needs the fork start method",
)
def test_a_client_shared_by_eight_threads_answers_each_thread(server):
    cores = (1, 2, 3, 4, 5, 6, 7, 8)
    answers: dict = {}
    errors: list = []
    start = threading.Barrier(len(cores))

    with ServeClient(server.url) as client:

        def run(n):
            try:
                start.wait()
                job_id = str(client.submit(_spec(n))["job_id"])
                for _ in range(20):
                    assert client.status(job_id)["job_id"] == job_id
                answers[n] = client.wait(job_id, timeout=300.0)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append((n, exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(n,)) for n in cores]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    assert sorted(answers) == list(cores)
    for n, result in answers.items():
        assert [r["n_cores"] for r in result["records"]] == [n]
