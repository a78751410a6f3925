"""Wire formats of the coordinator/worker protocol (docs/DIST.md).

Everything on the wire is JSON over the shared :mod:`repro.netutil`
HTTP/1.1 dialect.  This module owns request parsing and response
shaping for the four coordinator endpoints so :mod:`.coordinator` and
:mod:`.client` agree by construction:

* ``POST /v1/lease``      — ``{"worker": id}`` → granted / wait / done
* ``POST /v1/heartbeat``  — ``{"token": t}`` → renewed, or 409
* ``POST /v1/complete``   — ``{"token": t, "results": [...]}``
* ``GET  /v1/campaigns/<name>`` — streaming-aggregation snapshot

A lease error is a **409 Conflict** — deliberately outside the
client's retryable statuses, because retrying an expired lease cannot
help; the worker must drop the shard and ask for a fresh lease.
"""

from __future__ import annotations

from typing import Any

#: Version stamp carried in every coordinator answer.
DIST_PROTOCOL_VERSION = 1


class DistProtocolError(Exception):
    """A malformed request, mapped straight to an HTTP answer."""

    def __init__(self, status: int, code: str, detail: str) -> None:
        super().__init__(detail)
        self.status = status
        self.code = code
        self.detail = detail

    def body(self) -> dict:
        return {"error": self.code, "detail": self.detail}


def _require_dict(payload: Any) -> dict:
    if not isinstance(payload, dict):
        raise DistProtocolError(
            400, "bad-request", "request body must be a JSON object"
        )
    return payload


def parse_lease_request(payload: Any) -> str:
    """``{"worker": <id>}`` → the worker id."""
    data = _require_dict(payload)
    worker = data.get("worker")
    if not isinstance(worker, str) or not worker:
        raise DistProtocolError(
            400, "bad-request", "'worker' must be a non-empty string"
        )
    return worker


def parse_heartbeat_request(payload: Any) -> str:
    """``{"token": <lease token>}`` → the token."""
    data = _require_dict(payload)
    token = data.get("token")
    if not isinstance(token, str) or not token:
        raise DistProtocolError(
            400, "bad-request", "'token' must be a non-empty string"
        )
    return token


def parse_complete_request(payload: Any) -> tuple[str, list[dict]]:
    """``{"token": t, "results": [...]}`` → ``(token, results)``.

    Each result is ``{"index": int, "ok": bool}`` plus, when ok,
    ``"metrics"``/``"elapsed_s"``, or ``"error"`` when not.
    """
    data = _require_dict(payload)
    token = data.get("token")
    if not isinstance(token, str) or not token:
        raise DistProtocolError(
            400, "bad-request", "'token' must be a non-empty string"
        )
    results = data.get("results")
    if not isinstance(results, list):
        raise DistProtocolError(
            400, "bad-request", "'results' must be a list"
        )
    for entry in results:
        if not isinstance(entry, dict) or not isinstance(
            entry.get("index"), int
        ):
            raise DistProtocolError(
                400, "bad-request",
                "each result needs an integer 'index'",
            )
        if entry.get("ok") and not isinstance(entry.get("metrics"), dict):
            raise DistProtocolError(
                400, "bad-request",
                "an ok result needs a 'metrics' dict",
            )
    return token, results


# -- response shaping --------------------------------------------------------


def granted_body(
    token: str,
    shard_id: str,
    jobs: list[dict],
    *,
    ttl_s: float,
    retries: int,
) -> dict:
    return {
        "protocol": DIST_PROTOCOL_VERSION,
        "status": "granted",
        "lease": {
            "token": token,
            "shard": shard_id,
            "ttl_s": ttl_s,
            "jobs": jobs,
            "retries": retries,
        },
    }


def wait_body(retry_after_s: float) -> dict:
    return {
        "protocol": DIST_PROTOCOL_VERSION,
        "status": "wait",
        "retry_after_s": retry_after_s,
    }


def done_body() -> dict:
    return {"protocol": DIST_PROTOCOL_VERSION, "status": "done"}


def lease_lost_body(detail: str) -> dict:
    return {"error": "lease-lost", "detail": detail}
