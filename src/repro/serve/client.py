"""A blocking stdlib client for the simulation service.

:class:`ServeClient` keeps one ``http.client`` connection open across
requests (each asks for ``Connection: keep-alive``;
:meth:`~ServeClient.close` or a ``with`` block releases it) and adds
the retry discipline a well-behaved client of a load-shedding service
needs: ``429``/``503`` answers and transport errors are retried with
capped exponential backoff, and when the server names a price via
``Retry-After`` the client honors it instead of guessing.

A kept-alive connection the server has closed in the meantime (idle
past its read timeout, or drained) fails before any answer arrives;
that is not a transport error, so the request is resent once, at once,
on a fresh connection, outside the retry policy.  Resending is safe:
``simulate`` is content-addressed and a dist ``complete`` is
token-idempotent; a resent dist ``lease`` can at worst strand one
shard until its lease TTL runs out (docs/DIST.md).

Sleeping is injected (:data:`~repro.serve.clock.Sleep`), so retry
schedules are asserted exactly in tests without any real waiting.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import threading
from typing import Any, Optional

from repro.serve.clock import Sleep, blocking_sleep

#: Statuses a client should retry: throttled, shedding, or timed out
#: server-side with the computation still warming the cache.
RETRYABLE_STATUSES = frozenset({429, 503, 504})

#: How a reused connection fails when the server closed it while idle.
STALE_CONNECTION_ERRORS = (
    http.client.RemoteDisconnected,
    ConnectionResetError,
    BrokenPipeError,
)


class ServeError(RuntimeError):
    """Base class for client-side failures."""


class ServeHTTPError(ServeError):
    """A non-2xx answer that was not retried (or retries ran out)."""

    def __init__(self, status: int, payload: Any) -> None:
        detail = ""
        if isinstance(payload, dict):
            detail = payload.get("detail") or payload.get("error") or ""
        super().__init__(f"HTTP {status}: {detail}" if detail else
                         f"HTTP {status}")
        self.status = status
        self.payload = payload


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff for retryable answers.

    ``backoff_for(attempt, retry_after_s)`` returns the sleep before
    retry number ``attempt`` (1-based): the server's ``Retry-After``
    when given, otherwise ``backoff_s * multiplier**(attempt-1)``,
    always capped at ``max_backoff_s``.
    """

    max_attempts: int = 4
    backoff_s: float = 0.25
    multiplier: float = 2.0
    max_backoff_s: float = 5.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    def backoff_for(
        self, attempt: int, retry_after_s: Optional[float] = None
    ) -> float:
        if retry_after_s is not None and retry_after_s > 0:
            return min(retry_after_s, self.max_backoff_s)
        return min(
            self.backoff_s * self.multiplier ** (attempt - 1),
            self.max_backoff_s,
        )


#: A policy that never retries (fail on the first retryable answer).
NO_RETRY = RetryPolicy(max_attempts=1)


class ServeClient:
    """Blocking JSON client with Retry-After-aware backoff.

    One connection, used by one request at a time: threads sharing a
    client take turns.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8177,
        *,
        client_id: Optional[str] = None,
        retry: RetryPolicy = RetryPolicy(),
        timeout_s: float = 60.0,
        sleep: Sleep = blocking_sleep,
    ) -> None:
        self.host = host
        self.port = port
        self.client_id = client_id
        self.retry = retry
        self.timeout_s = timeout_s
        self._sleep = sleep
        self._lock = threading.Lock()
        self._connection: Optional[http.client.HTTPConnection] = None

    def close(self) -> None:
        """Close the kept-alive connection; a later request reopens one."""
        with self._lock:
            if self._connection is not None:
                self._connection.close()
                self._connection = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- endpoints -----------------------------------------------------------

    def simulate(
        self,
        config: dict,
        *,
        trials: Optional[int] = None,
        seed: Optional[int] = None,
        kernel: Optional[str] = None,
        fault_plan: Optional[dict] = None,
        deadline_ms: Optional[float] = None,
    ) -> dict:
        """``POST /v1/simulate``; returns the decoded success body."""
        body: dict[str, Any] = {"config": config}
        if trials is not None:
            body["trials"] = trials
        if seed is not None:
            body["seed"] = seed
        if kernel is not None:
            body["kernel"] = kernel
        if fault_plan is not None:
            body["fault_plan"] = fault_plan
        if deadline_ms is not None:
            body["deadline_ms"] = deadline_ms
        return self._request("POST", "/v1/simulate", body)

    def healthz(self) -> dict:
        return self._request("GET", "/v1/healthz")

    def metricz(self) -> dict:
        return self._request("GET", "/v1/metricz")

    # -- transport -----------------------------------------------------------

    def _request(
        self, method: str, path: str, body: Optional[dict] = None
    ) -> dict:
        last_error: Optional[ServeError] = None
        for attempt in range(1, self.retry.max_attempts + 1):
            try:
                status, headers, payload = self._once(method, path, body)
            except (OSError, http.client.HTTPException) as exc:
                last_error = ServeError(f"transport failure: {exc}")
                if attempt < self.retry.max_attempts:
                    self._sleep(self.retry.backoff_for(attempt))
                continue
            if 200 <= status < 300:
                return payload
            last_error = ServeHTTPError(status, payload)
            if status in RETRYABLE_STATUSES and attempt < self.retry.max_attempts:
                self._sleep(
                    self.retry.backoff_for(
                        attempt, _retry_after_s(headers, payload)
                    )
                )
                continue
            raise last_error
        raise last_error

    def _once(
        self, method: str, path: str, body: Optional[dict]
    ) -> tuple[int, dict, Any]:
        headers = {"Content-Type": "application/json",
                   "Connection": "keep-alive"}
        if self.client_id is not None:
            headers["X-Client-Id"] = self.client_id
        encoded = json.dumps(body).encode("utf-8") if body is not None else None
        with self._lock:
            if self._connection is None:
                self._connection = http.client.HTTPConnection(
                    self.host, self.port, timeout=self.timeout_s
                )
            # http.client drops the socket after a Connection: close
            # answer and opens a fresh one on the next request.
            reused = self._connection.sock is not None
            try:
                return self._exchange(method, path, encoded, headers)
            except STALE_CONNECTION_ERRORS:
                if not reused:
                    raise
            return self._exchange(method, path, encoded, headers)

    def _exchange(
        self, method: str, path: str, encoded: Optional[bytes], headers: dict
    ) -> tuple[int, dict, Any]:
        """One request and its whole answer on the held connection."""
        connection = self._connection
        try:
            connection.request(method, path, body=encoded, headers=headers)
            response = connection.getresponse()
            raw = response.read()
        except BaseException:
            connection.close()  # its state is unknown: never reuse it
            raise
        try:
            payload = json.loads(raw) if raw else None
        except json.JSONDecodeError:
            payload = {"error": "bad-response",
                       "detail": raw.decode("utf-8", "replace")}
        return (
            response.status,
            {k.lower(): v for k, v in response.getheaders()},
            payload,
        )


def _retry_after_s(headers: dict, payload: Any) -> Optional[float]:
    """The server's retry price: exact body value over the integer header."""
    if isinstance(payload, dict) and isinstance(
        payload.get("retry_after_s"), (int, float)
    ):
        return float(payload["retry_after_s"])
    value = headers.get("retry-after")
    if value is not None:
        try:
            return float(value)
        except ValueError:
            return None
    return None
