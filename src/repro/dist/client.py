"""A blocking client for the coordinator protocol.

:class:`CoordinatorClient` reuses the :class:`~repro.serve.client.ServeClient`
transport wholesale — one kept-alive ``http.client`` connection, resent
once on a fresh one when the server closed it while idle,
capped-exponential retry of ``429``/``503``/``504`` and transport
errors, injected sleep.  Lease conflicts (``409``) are deliberately
*not* retryable: they surface as
:class:`~repro.serve.client.ServeHTTPError` with ``status == 409``,
which the worker loop treats as "drop this shard and lease another".
"""

from __future__ import annotations

from typing import Optional

from repro.serve.client import ServeClient, ServeHTTPError


def is_lease_lost(error: ServeHTTPError) -> bool:
    """True when the server said this lease can no longer be honored."""
    return error.status == 409


class CoordinatorClient(ServeClient):
    """Blocking JSON client speaking the dist protocol (docs/DIST.md)."""

    def lease(self, worker: str) -> dict:
        """``POST /v1/lease``; body status is granted / wait / done."""
        return self._request("POST", "/v1/lease", {"worker": worker})

    def heartbeat(self, token: str) -> dict:
        """``POST /v1/heartbeat``; raises 409 ServeHTTPError when lost."""
        return self._request("POST", "/v1/heartbeat", {"token": token})

    def complete(
        self, token: str, results: list[dict], worker: Optional[str] = None
    ) -> dict:
        """``POST /v1/complete``; streams one shard's results back.

        Naming the ``worker`` asks for its next lease in the same round
        trip: an accepted, non-duplicate answer then carries ``"next"``,
        the body ``POST /v1/lease`` would have returned.
        """
        body = {"token": token, "results": results}
        if worker is not None:
            body["worker"] = worker
        return self._request("POST", "/v1/complete", body)

    def campaign(self, name: str) -> dict:
        """``GET /v1/campaigns/<name>``; partial aggregates any time."""
        return self._request("GET", f"/v1/campaigns/{name}")
