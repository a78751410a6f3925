"""Shared harness for dist tests: real coordinators on ephemeral ports."""

import pytest

from repro.dist import Coordinator, CoordinatorConfig, CoordinatorClient
from repro.dist.coordinator import start_coordinator_in_thread
from repro.serve import NO_RETRY
from repro.sweep.spec import SweepSpec
from repro.sweep.store import ResultStore

#: Small but real: 4 jobs across 2 cells, each well under a second.
SMALL_SPEC = SweepSpec(
    name="dist-test",
    base={"num_runs": 6, "blocks_per_run": 30},
    grid={"num_disks": [1, 2]},
    trials=2,
    base_seed=17,
)


class FakeClock:
    """A hand-cranked clock for deterministic lease expiry."""

    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


@pytest.fixture
def fake_clock():
    return FakeClock()


@pytest.fixture
def coordinator_factory(tmp_path):
    """Start real coordinators on ephemeral ports; drain afterwards."""
    handles = []

    def start(spec=SMALL_SPEC, *, store=None, **kwargs):
        kwargs.setdefault("port", 0)
        kwargs.setdefault("shard_size", 2)
        kwargs.setdefault("cache_dir", tmp_path / "cache")
        if store is None:
            store = ResultStore(kwargs["cache_dir"])
        coordinator = Coordinator(
            spec, CoordinatorConfig(**kwargs), store=store
        )
        handle = start_coordinator_in_thread(coordinator)
        handles.append(handle)
        return coordinator, handle

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
    client = CoordinatorClient(host, port, **kwargs)
    _CLIENTS.append(client)
    return client
