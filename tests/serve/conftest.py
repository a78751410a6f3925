"""Shared harness for serve tests: real servers on ephemeral ports."""

import threading

import pytest

from repro.serve import NO_RETRY, ServeClient, ServeConfig, SimulationServer
from repro.serve.server import start_in_thread
from repro.sweep.worker import execute_job

#: A configuration small enough that a trial computes in well under a
#: second but large enough to exercise the full simulation.
SMALL_CONFIG = {"num_runs": 4, "num_disks": 2, "blocks_per_run": 20}


@pytest.fixture
def serve_factory(tmp_path):
    """Start real servers on ephemeral ports; drain them all afterwards."""
    handles = []

    def start(**kwargs):
        kwargs.setdefault("port", 0)
        kwargs.setdefault("workers", 0)
        kwargs.setdefault("cache_dir", tmp_path / "cache")
        kwargs.setdefault("drain_grace_s", 5.0)
        server = SimulationServer(ServeConfig(**kwargs))
        handle = start_in_thread(server)
        handles.append(handle)
        return server, handle

    yield start
    for handle in handles:
        handle.stop()


#: Clients made by :func:`client_for` in the running test.
_CLIENTS = []


@pytest.fixture(autouse=True)
def close_clients():
    """Close every kept-alive client connection a test opened."""
    yield
    while _CLIENTS:
        _CLIENTS.pop().close()


def client_for(handle, **kwargs):
    """A fail-fast client (no retries unless a test opts in), closed
    when the test ends."""
    host, port = handle.address
    kwargs.setdefault("retry", NO_RETRY)
    kwargs.setdefault("timeout_s", 30.0)
    client = ServeClient(host, port, **kwargs)
    _CLIENTS.append(client)
    return client


class GatedExecute:
    """A stand-in for ``execute_job`` that parks until released.

    Lets tests hold a computation in flight deterministically — to
    overlap identical requests (coalescing), fill compute slots
    (queue shedding), or outlive a deadline — then delegate to the
    real worker so results stay bit-identical.
    """

    def __init__(self):
        self.release = threading.Event()
        self.started = threading.Event()
        self._lock = threading.Lock()
        self.calls = 0

    def __call__(self, payload):
        with self._lock:
            self.calls += 1
        self.started.set()
        if not self.release.wait(timeout=30):
            raise TimeoutError("test gate never released")
        return execute_job(payload)


@pytest.fixture
def gated_execute(monkeypatch):
    gate = GatedExecute()
    monkeypatch.setattr("repro.serve.server.execute_job", gate)
    yield gate
    gate.release.set()  # never leave a server thread parked
