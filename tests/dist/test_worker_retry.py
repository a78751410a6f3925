"""Worker-before-coordinator startup: first contact retries, never dies."""

import pytest

from repro.dist.worker import CONNECT_RETRY, DistWorker
from repro.serve.client import RetryPolicy, ServeError


class FlakyClient:
    """Refuses the first ``failures`` leases, then reports done."""

    def __init__(self, failures):
        self.failures = failures
        self.lease_calls = 0

    def lease(self, worker_id):
        self.lease_calls += 1
        if self.lease_calls <= self.failures:
            raise ServeError("connection refused")
        return {"status": "done"}


def make_worker(client, **kwargs):
    sleeps = []
    worker = DistWorker(
        client=client,
        sleep=sleeps.append,
        **kwargs,
    )
    return worker, sleeps


def test_worker_retries_until_coordinator_listens():
    client = FlakyClient(failures=3)
    worker, sleeps = make_worker(client)
    stats = worker.run()
    assert client.lease_calls == 4
    assert stats.connect_retries == 3
    assert not stats.coordinator_gone
    # Capped exponential backoff, the same shape ServeClient uses.
    assert sleeps == [
        CONNECT_RETRY.backoff_for(attempt) for attempt in (1, 2, 3)
    ]
    assert sleeps == sorted(sleeps)


def test_worker_gives_up_after_the_retry_budget():
    client = FlakyClient(failures=100)
    policy = RetryPolicy(max_attempts=3, backoff_s=0.01)
    worker, sleeps = make_worker(client, connect_retry=policy)
    with pytest.raises(ServeError, match="connection refused"):
        worker.run()
    assert client.lease_calls == 3
    assert worker.stats.connect_retries == 2
    assert len(sleeps) == 2


def test_connection_loss_after_contact_is_not_retried():
    """Post-contact disappearance means the campaign finished; the
    startup retry budget must not mask it."""

    class VanishingClient:
        def __init__(self):
            self.lease_calls = 0

        def lease(self, worker_id):
            self.lease_calls += 1
            if self.lease_calls == 1:
                return {"status": "wait", "retry_after_s": 0}
            raise ServeError("connection refused")

    client = VanishingClient()
    worker, _sleeps = make_worker(client)
    stats = worker.run()
    assert stats.coordinator_gone
    assert stats.connect_retries == 0


def test_connect_retries_round_trip_through_stats():
    from repro.dist.worker import WorkerStats

    stats = WorkerStats(connect_retries=5)
    assert WorkerStats.from_dict(stats.to_dict()).connect_retries == 5
