"""Persistent connections: the opt-in keep-alive of both JSON services
and the one kept-alive connection of ``ServeClient``.

Server behaviour is driven over raw sockets, so the exact answer
headers and the moment a connection closes are visible.
"""

import json
import socket
import threading
import time

import pytest

import repro.netutil
from repro.dist import Coordinator, CoordinatorConfig
from repro.dist.coordinator import start_coordinator_in_thread
from repro.serve import NO_RETRY, ServeClient, ServeConfig, ServeError
from repro.serve import SimulationServer
from repro.serve.server import start_in_thread
from repro.sweep.spec import SweepSpec
from repro.sweep.worker import execute_job

SPEC = SweepSpec(
    name="keepalive-test",
    base={"num_runs": 4, "blocks_per_run": 20},
    grid={"num_disks": [1]},
    trials=1,
    base_seed=3,
)


@pytest.fixture(params=["serve", "dist"])
def service(request, tmp_path):
    """Yields ``(name, start)``; ``start()`` runs one service on an
    ephemeral port and returns ``(service, handle)``."""
    handles = []

    def start(drain_grace_s=5.0):
        if request.param == "serve":
            svc = SimulationServer(ServeConfig(
                port=0, cache_dir=tmp_path / "cache",
                drain_grace_s=drain_grace_s,
            ))
            handle = start_in_thread(svc)
        else:
            svc = Coordinator(SPEC, CoordinatorConfig(
                port=0, cache_dir=tmp_path / "cache",
                drain_grace_s=drain_grace_s,
            ))
            handle = start_coordinator_in_thread(svc)
        handles.append(handle)
        return svc, handle

    yield request.param, start
    for handle in handles:
        handle.stop()


def send(sock, method, path, payload=None, keep_alive=True):
    body = b"" if payload is None else json.dumps(payload).encode()
    connection = "Connection: keep-alive\r\n" if keep_alive else ""
    head = (f"{method} {path} HTTP/1.1\r\n{connection}"
            f"Content-Length: {len(body)}\r\n\r\n")
    sock.sendall(head.encode() + body)


def read_answer(stream):
    """``(status, headers, body)`` of one answer off a socket file."""
    status_line = stream.readline().decode("ascii")
    headers = {}
    while True:
        line = stream.readline().decode("ascii").rstrip("\r\n")
        if not line:
            break
        name, _, value = line.partition(": ")
        headers[name] = value
    body = stream.read(int(headers["Content-Length"]))
    return int(status_line.split()[1]), headers, json.loads(body)


def connect(handle):
    sock = socket.create_connection(handle.address, timeout=10)
    return sock, sock.makefile("rb")


def test_two_requests_share_one_kept_alive_connection(service):
    name, start = service
    svc, handle = start()
    sock, stream = connect(handle)
    with sock, stream:
        for _ in range(2):
            send(sock, "GET", "/v1/healthz")
            status, headers, body = read_answer(stream)
            assert status == 200
            assert headers["Connection"] == "keep-alive"
            assert body["status"] == "ok"
    counters = svc.metrics.to_dict()["counters"]
    assert counters[f"{name}_requests{{endpoint=healthz}}"] == 2


def test_a_request_without_the_header_is_answered_close_then_eof(service):
    _name, start = service
    _svc, handle = start()
    sock, stream = connect(handle)
    with sock, stream:
        send(sock, "GET", "/v1/healthz", keep_alive=False)
        status, headers, _body = read_answer(stream)
        assert (status, headers["Connection"]) == (200, "close")
        assert stream.read() == b""  # the server closed its end


def test_an_unread_413_body_ends_a_kept_alive_connection(service):
    _name, start = service
    svc, handle = start()
    sock, stream = connect(handle)
    with sock, stream:
        sock.sendall(
            b"POST /v1/nope HTTP/1.1\r\nConnection: keep-alive\r\n"
            + f"Content-Length: {svc.max_body_bytes + 1}\r\n\r\n".encode()
        )
        status, headers, _body = read_answer(stream)
        assert (status, headers["Connection"]) == (413, "close")
        assert stream.read() == b""


def test_drain_closes_an_idle_kept_alive_connection_at_once(service):
    _name, start = service
    _svc, handle = start(drain_grace_s=5.0)
    sock, stream = connect(handle)
    with sock, stream:
        send(sock, "GET", "/v1/healthz")
        assert read_answer(stream)[1]["Connection"] == "keep-alive"
        began = time.monotonic()
        handle.stop(timeout_s=10)
        elapsed = time.monotonic() - began
        assert not handle.thread.is_alive()
        assert stream.read() == b""  # closed without an answer
    assert elapsed < 1.0  # well inside drain_grace_s


def test_the_answer_that_ends_an_exit_when_done_campaign_says_close(
    tmp_path,
):
    coordinator = Coordinator(SPEC, CoordinatorConfig(
        port=0, cache_dir=tmp_path / "cache", exit_when_done=True,
    ))
    handle = start_coordinator_in_thread(coordinator)
    try:
        sock, stream = connect(handle)
        with sock, stream:
            send(sock, "POST", "/v1/lease", {"worker": "w0"})
            _status, headers, granted = read_answer(stream)
            assert headers["Connection"] == "keep-alive"
            [job] = granted["lease"]["jobs"]
            outcome = execute_job(job)
            send(sock, "POST", "/v1/complete", {
                "token": granted["lease"]["token"], "worker": "w0",
                "results": [{"index": job["index"], "ok": True,
                             "metrics": outcome["metrics"]}],
            })
            status, headers, answer = read_answer(stream)
            assert (status, headers["Connection"]) == (200, "close")
            assert answer["campaign_complete"]
            assert answer["next"]["status"] == "done"
            assert stream.read() == b""
        handle.join(10)
        assert not handle.thread.is_alive()
    finally:
        handle.stop()


# -- the client side ---------------------------------------------------------


def test_client_reuses_one_connection(tmp_path):
    server = SimulationServer(ServeConfig(port=0, cache_dir=tmp_path))
    handle = start_in_thread(server)
    try:
        with ServeClient(*handle.address, retry=NO_RETRY) as client:
            client.healthz()
            sock = client._connection.sock
            client.healthz()
            assert client._connection.sock is sock
        assert client._connection is None
    finally:
        handle.stop()


def test_client_reconnects_once_when_the_server_closed_the_idle_connection(
    tmp_path, monkeypatch
):
    # The server drops a kept-alive connection idle for this long.
    monkeypatch.setattr(repro.netutil, "READ_TIMEOUT_S", 0.2)
    server = SimulationServer(ServeConfig(port=0, cache_dir=tmp_path))
    handle = start_in_thread(server)
    sleeps = []
    try:
        with ServeClient(*handle.address, retry=NO_RETRY,
                         sleep=sleeps.append) as client:
            client.healthz()
            stale = client._connection.sock
            time.sleep(0.5)  # the server has closed its end by now
            assert client.healthz()["status"] == "ok"
            assert client._connection.sock is not stale
    finally:
        handle.stop()
    assert sleeps == []  # no backoff: the reconnect is not a retry
    counters = server.metrics.to_dict()["counters"]
    assert counters["serve_requests{endpoint=healthz}"] == 2


class OneAnswerServer:
    """Accepts two connections: answers the first request of the first
    (kept alive), then closes each without answering again."""

    def __init__(self):
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.address = self.listener.getsockname()
        self.connections = 0
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        for _ in range(2):
            conn, _ = self.listener.accept()
            self.connections += 1
            with conn:
                request = conn.recv(65536)
                if self.connections == 1 and request:
                    body = b'{"status": "ok"}'
                    conn.sendall(
                        b"HTTP/1.1 200 OK\r\nConnection: keep-alive\r\n"
                        b"Content-Length: %d\r\n\r\n" % len(body) + body
                    )
                    conn.recv(65536)  # the next request: dropped

    def close(self):
        self.thread.join(5)
        self.listener.close()


def test_client_reconnects_only_once_and_then_fails_through_the_policy():
    server = OneAnswerServer()
    sleeps = []
    try:
        with ServeClient(*server.address, retry=NO_RETRY,
                         sleep=sleeps.append) as client:
            assert client.healthz() == {"status": "ok"}
            with pytest.raises(ServeError, match="transport failure"):
                client.healthz()
    finally:
        server.close()
    # The reused connection and one fresh connection, no more.
    assert server.connections == 2
    assert sleeps == []


def test_an_idle_connection_waits_outside_read_http_request(
    service, monkeypatch
):
    """``read_http_request`` runs only once a request has begun to
    arrive, so a span around it never covers a kept-alive idle wait."""
    _name, start = service
    inside = []
    original = repro.netutil.read_http_request

    async def counted(*args, **kwargs):
        inside.append(1)
        try:
            return await original(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(repro.netutil, "read_http_request", counted)
    _svc, handle = start()
    sock, stream = connect(handle)
    with sock, stream:
        send(sock, "GET", "/v1/healthz")
        assert read_answer(stream)[0] == 200
        time.sleep(0.1)  # the connection now idles, kept alive
        assert inside == []
