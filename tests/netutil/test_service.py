"""The shared request path and lifecycle of both JSON services.

``repro serve`` and the ``repro dist`` coordinator are both a
:class:`repro.netutil.JsonService`; every test here runs against each
of them over a real socket, with raw HTTP so malformed and oversized
requests can be sent as they are.
"""

import asyncio
import json
import socket
import threading

import pytest

from repro.dist import Coordinator, CoordinatorConfig
from repro.dist.coordinator import MAX_BODY_BYTES as DIST_MAX_BODY_BYTES
from repro.dist.coordinator import start_coordinator_in_thread
from repro.serve import MAX_BODY_BYTES as SERVE_MAX_BODY_BYTES
from repro.serve import ServeConfig, SimulationServer
from repro.serve.server import start_in_thread
from repro.sweep.spec import SweepSpec

SPEC = SweepSpec(
    name="netutil-test",
    base={"num_runs": 4, "blocks_per_run": 20},
    grid={"num_disks": [1]},
    trials=1,
    base_seed=3,
)

#: service -> (a POST-only route, its request body, the body limit)
SERVICES = {
    "serve": ("/v1/simulate",
              {"config": {"num_runs": 4, "num_disks": 1,
                          "blocks_per_run": 20}, "trials": 1},
              SERVE_MAX_BODY_BYTES),
    "dist": ("/v1/lease", {"worker": "w0"}, DIST_MAX_BODY_BYTES),
}


@pytest.fixture(params=sorted(SERVICES))
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


def exchange(handle, raw: bytes) -> bytes:
    """Send ``raw`` on a fresh connection; everything read until close."""
    with socket.create_connection(handle.address, timeout=10) as sock:
        sock.sendall(raw)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def request(handle, method, path, payload=None):
    """``(status, headers, body)`` of one JSON request."""
    body = b"" if payload is None else json.dumps(payload).encode()
    head = f"{method} {path} HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n"
    raw = exchange(handle, head.encode() + body)
    head, _, answer = raw.partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("ascii").split("\r\n")
    parsed = dict(line.split(": ", 1) for line in header_lines)
    return int(status_line.split()[1]), parsed, json.loads(answer)


def test_unknown_route_is_404(service):
    name, start = service
    _svc, handle = start()
    status, headers, body = request(handle, "GET", "/v1/nope")
    assert status == 404
    assert body == {"error": "not-found", "detail": "no route for /v1/nope"}
    assert headers["Connection"] == "close"


def test_wrong_method_is_405_with_allow(service):
    name, start = service
    _svc, handle = start()
    post_route, _payload, _limit = SERVICES[name]
    status, headers, body = request(handle, "GET", post_route)
    assert (status, headers["Allow"]) == (405, "POST")
    assert body["error"] == "method-not-allowed"
    status, headers, _body = request(handle, "POST", "/v1/healthz", {})
    assert (status, headers["Allow"]) == (405, "GET")


def test_body_over_the_limit_is_413_unread(service):
    name, start = service
    svc, handle = start()
    post_route, _payload, limit = SERVICES[name]
    raw = (f"POST {post_route} HTTP/1.1\r\n"
           f"Content-Length: {limit + 1}\r\n\r\n").encode()
    answer = exchange(handle, raw)  # the body itself is never sent
    assert answer.startswith(b"HTTP/1.1 413 Payload Too Large\r\n")
    body = json.loads(answer.partition(b"\r\n\r\n")[2])
    assert body["detail"] == f"body exceeds {limit} bytes"
    counters = svc.metrics.to_dict()["counters"]
    assert counters[f"{name}_responses{{code=413}}"] == 1


def test_malformed_request_line_is_dropped_unanswered(service):
    name, start = service
    svc, handle = start()
    assert exchange(handle, b"GARBAGE\r\n\r\n") == b""
    assert request(handle, "GET", "/v1/healthz")[0] == 200
    counted = {
        key: value
        for key, value in svc.metrics.to_dict()["counters"].items()
        if key.startswith((f"{name}_requests", f"{name}_responses"))
    }
    assert counted == {  # the dropped request was never counted
        f"{name}_requests{{endpoint=healthz}}": 1,
        f"{name}_responses{{code=200}}": 1,
    }


def test_raising_handler_answers_500_and_the_next_request_succeeds(service):
    name, start = service
    svc, handle = start()
    post_route, payload, _limit = SERVICES[name]
    original = svc._handle
    calls = []

    async def raise_once(*args):
        calls.append(args[0])
        if len(calls) == 1:
            raise RuntimeError("handler bug")
        return await original(*args)

    svc._handle = raise_once
    status, _headers, body = request(handle, "POST", post_route, payload)
    assert (status, body) == (500, {"error": "internal",
                                    "detail": "RuntimeError"})
    status, _headers, _body = request(handle, "POST", post_route, payload)
    assert status == 200
    assert len(calls) == 2


def test_drain_cancels_a_straggler_past_the_grace(service):
    name, start = service
    svc, handle = start(drain_grace_s=0.2)
    post_route, _payload, _limit = SERVICES[name]
    parked = threading.Event()
    outcome = []

    async def park(*args):
        parked.set()
        try:
            await asyncio.sleep(60)
        except asyncio.CancelledError:
            # Cancelled by the drain itself, before it released run().
            outcome.append(("cancelled", svc._stopped.is_set()))
            raise
        return 200, {}, {}

    svc._handle = park
    answers = []
    client = threading.Thread(target=lambda: answers.append(exchange(
        handle,
        f"POST {post_route} HTTP/1.1\r\nContent-Length: 2\r\n\r\n{{}}".encode(),
    )))
    client.start()
    assert parked.wait(10)
    handle.stop(timeout_s=10)
    client.join(10)
    assert not handle.thread.is_alive()
    assert outcome == [("cancelled", False)]
    assert answers == [b""]  # cancelled mid-request: no answer written
    assert svc.draining
