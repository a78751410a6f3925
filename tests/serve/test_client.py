"""ServeClient retry discipline against a scripted transport.

The transport (``_once``) is stubbed so every retry decision — which
statuses retry, how long the backoff is, how ``Retry-After`` overrides
it — is asserted exactly, with an injected sleep that records instead
of waiting.
"""

import pytest

from repro.serve.client import (
    NO_RETRY,
    RetryPolicy,
    ServeClient,
    ServeHTTPError,
)


class ScriptedTransport:
    """Feed a fixed sequence of (status, headers, payload) answers."""

    def __init__(self, answers):
        self.answers = list(answers)
        self.requests = []

    def __call__(self, method, path, body):
        self.requests.append((method, path, body))
        answer = self.answers.pop(0)
        if isinstance(answer, Exception):
            raise answer
        return answer


def make_client(answers, *, retry=None, monkeypatch=None):
    sleeps = []
    client = ServeClient(
        retry=retry or RetryPolicy(max_attempts=4, backoff_s=0.25),
        sleep=sleeps.append,
    )
    transport = ScriptedTransport(answers)
    monkeypatch.setattr(client, "_once", transport)
    return client, transport, sleeps


class TestRetryPolicy:
    def test_capped_exponential(self):
        policy = RetryPolicy(backoff_s=0.25, multiplier=2.0, max_backoff_s=1.0)
        assert [policy.backoff_for(n) for n in (1, 2, 3, 4)] == [
            0.25, 0.5, 1.0, 1.0
        ]

    def test_retry_after_takes_precedence_but_is_capped(self):
        policy = RetryPolicy(backoff_s=0.25, max_backoff_s=5.0)
        assert policy.backoff_for(1, retry_after_s=2.0) == 2.0
        assert policy.backoff_for(1, retry_after_s=60.0) == 5.0

    def test_at_least_one_attempt(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)


class TestRetries:
    def test_success_needs_no_sleep(self, monkeypatch):
        client, transport, sleeps = make_client(
            [(200, {}, {"ok": True})], monkeypatch=monkeypatch
        )
        assert client.healthz() == {"ok": True}
        assert sleeps == []

    def test_429_honors_retry_after_body(self, monkeypatch):
        client, transport, sleeps = make_client([
            (429, {"retry-after": "2"}, {"retry_after_s": 1.75}),
            (200, {}, {"ok": True}),
        ], monkeypatch=monkeypatch)
        assert client.healthz() == {"ok": True}
        # The body's exact value wins over the integer-rounded header.
        assert sleeps == [1.75]

    def test_503_backs_off_exponentially_without_retry_after(self, monkeypatch):
        client, transport, sleeps = make_client([
            (503, {}, {"error": "overloaded"}),
            (503, {}, {"error": "overloaded"}),
            (200, {}, {"ok": True}),
        ], monkeypatch=monkeypatch)
        assert client.healthz() == {"ok": True}
        assert sleeps == [0.25, 0.5]

    def test_exhausted_retries_raise_the_last_answer(self, monkeypatch):
        client, transport, sleeps = make_client(
            [(503, {}, {"error": "overloaded"})] * 4, monkeypatch=monkeypatch
        )
        with pytest.raises(ServeHTTPError) as excinfo:
            client.healthz()
        assert excinfo.value.status == 503
        assert len(transport.requests) == 4
        assert sleeps == [0.25, 0.5, 1.0]  # no sleep after the last attempt

    def test_400_is_not_retried(self, monkeypatch):
        client, transport, sleeps = make_client([
            (400, {}, {"error": "bad-config", "detail": "num_disks"}),
            (200, {}, {"ok": True}),
        ], monkeypatch=monkeypatch)
        with pytest.raises(ServeHTTPError) as excinfo:
            client.healthz()
        assert excinfo.value.status == 400
        assert "num_disks" in str(excinfo.value)
        assert len(transport.requests) == 1

    def test_transport_errors_retry(self, monkeypatch):
        client, transport, sleeps = make_client([
            ConnectionRefusedError("refused"),
            (200, {}, {"ok": True}),
        ], monkeypatch=monkeypatch)
        assert client.healthz() == {"ok": True}
        assert sleeps == [0.25]

    def test_no_retry_policy_fails_fast(self, monkeypatch):
        client, transport, sleeps = make_client(
            [(429, {}, {})], retry=NO_RETRY, monkeypatch=monkeypatch
        )
        with pytest.raises(ServeHTTPError):
            client.healthz()
        assert len(transport.requests) == 1
        assert sleeps == []


class TestRequestShapes:
    def test_simulate_body(self, monkeypatch):
        client, transport, _ = make_client(
            [(200, {}, {})], monkeypatch=monkeypatch
        )
        client.simulate({"num_runs": 4, "num_disks": 2}, trials=3, seed=9,
                        kernel="batch", deadline_ms=500)
        method, path, body = transport.requests[0]
        assert (method, path) == ("POST", "/v1/simulate")
        assert body == {
            "config": {"num_runs": 4, "num_disks": 2},
            "trials": 3, "seed": 9, "kernel": "batch", "deadline_ms": 500,
        }
