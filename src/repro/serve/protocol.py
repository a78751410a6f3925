"""Wire format of the simulation service.

Requests and responses are plain JSON over HTTP/1.1.  This module owns
both directions of the translation — JSON body to validated
:class:`~repro.core.parameters.SimulationConfig` (plus per-request
options), and metrics objects back to JSON payloads — so the server,
the client, and the tests all speak through one schema.

Errors raise :class:`ProtocolError`, which carries the HTTP status the
server should answer with; every error body has the shape
``{"error": <code>, "detail": <human text>}`` (plus ``retry_after_s``
on throttle/overload answers, mirroring the ``Retry-After`` header).

The full request/response reference lives in ``docs/SERVE.md``.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Optional

from repro.core.metrics import AggregateMetrics, MergeMetrics
from repro.core.parameters import SimulationConfig
from repro.sweep.keys import CACHE_SCHEMA_VERSION, config_to_dict, coerce_params

#: Bump on any incompatible change to request or response shapes.
PROTOCOL_VERSION = 2

#: Upper bound on accepted request bodies (1 MiB is orders of magnitude
#: above any real config; bigger is a client bug).
MAX_BODY_BYTES = 1 << 20

#: Ceiling on trials per simulate request: a single request is an
#: interactive unit of work; bulk campaigns belong on ``repro sweep
#: --cache-dir`` or ``repro dist`` against the server's store.
MAX_TRIALS_PER_REQUEST = 64


class ProtocolError(ValueError):
    """A malformed or unacceptable request, with its HTTP status."""

    def __init__(self, status: int, code: str, detail: str) -> None:
        super().__init__(detail)
        self.status = status
        self.code = code
        self.detail = detail

    def body(self) -> dict:
        return {"error": self.code, "detail": self.detail}


@dataclasses.dataclass(frozen=True)
class SimulateRequest:
    """One validated ``POST /v1/simulate`` body."""

    config: SimulationConfig
    #: Optional per-request deadline (seconds); None = server default.
    deadline_s: Optional[float] = None

    @property
    def trials(self) -> int:
        return self.config.trials


def _require_object(payload: Any, what: str) -> dict:
    if not isinstance(payload, dict):
        raise ProtocolError(
            400, "bad-request",
            f"{what} must be a JSON object, got {type(payload).__name__}",
        )
    return payload


def parse_simulate_request(payload: Any) -> SimulateRequest:
    """Validate a decoded ``/v1/simulate`` body.

    Accepted keys: ``config`` (required: ``SimulationConfig`` fields as
    JSON, enums as their string values), ``trials`` / ``seed`` /
    ``fault_plan`` / ``kernel`` (optional overrides folded into the
    config), and ``deadline_ms``.  Anything else is rejected so typos
    fail loudly instead of silently simulating the wrong thing.
    """
    payload = _require_object(payload, "request body")
    known = {"config", "trials", "seed", "fault_plan", "kernel", "deadline_ms"}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ProtocolError(
            400, "bad-request",
            f"unknown request key(s) {', '.join(unknown)} "
            f"(known: {', '.join(sorted(known))})",
        )
    if "config" not in payload:
        raise ProtocolError(400, "bad-request", "missing required key 'config'")
    params = dict(_require_object(payload["config"], "'config'"))
    if "trials" in payload:
        params["trials"] = payload["trials"]
    if "seed" in payload:
        params["base_seed"] = payload["seed"]
    if "fault_plan" in payload:
        params["fault_plan"] = payload["fault_plan"]
    if "kernel" in payload:
        params["kernel"] = payload["kernel"]
    try:
        config = SimulationConfig(**coerce_params(params))
    except (TypeError, ValueError, KeyError) as exc:
        raise ProtocolError(400, "bad-config", str(exc)) from exc
    if config.trials > MAX_TRIALS_PER_REQUEST:
        raise ProtocolError(
            400, "bad-config",
            f"trials={config.trials} exceeds the per-request ceiling "
            f"{MAX_TRIALS_PER_REQUEST}; run a sweep campaign instead",
        )
    deadline_s = None
    if payload.get("deadline_ms") is not None:
        deadline_ms = payload["deadline_ms"]
        if not isinstance(deadline_ms, (int, float)) or deadline_ms <= 0:
            raise ProtocolError(
                400, "bad-request", "deadline_ms must be a positive number"
            )
        deadline_s = float(deadline_ms) / 1000.0
    return SimulateRequest(config=config, deadline_s=deadline_s)


def simulate_response(
    config: SimulationConfig,
    trials: list[MergeMetrics],
    *,
    hits: int,
    misses: int,
    coalesced: int,
    elapsed_ms: float,
) -> dict:
    """The ``/v1/simulate`` success body.

    ``trials[t]`` is byte-identical to
    ``MergeSimulation(config).run_trial(trial=t).to_dict()`` whether it
    came from the cache, a fresh computation, or a coalesced flight —
    that equivalence is the service's core contract (enforced by
    ``tests/serve/test_server_e2e.py``).
    """
    aggregate = AggregateMetrics(config.describe(), trials)
    time_s = aggregate.total_time_s
    low, high = time_s.confidence_interval()
    return {
        "protocol": PROTOCOL_VERSION,
        "cache_schema": CACHE_SCHEMA_VERSION,
        "config": config_to_dict(config),
        "cache": {"hits": hits, "misses": misses, "coalesced": coalesced},
        "trials": [metrics.to_dict() for metrics in trials],
        "aggregate": {
            "description": aggregate.config_description,
            "total_time_s": {"mean": time_s.mean, "ci95": [low, high]},
            "success_ratio": {"mean": aggregate.success_ratio.mean},
            "average_concurrency": {
                "mean": aggregate.average_concurrency.mean
            },
        },
        "elapsed_ms": elapsed_ms,
    }


def overload_body(code: str, detail: str, retry_after_s: float) -> dict:
    """A 429/503 body; ``retry_after_s`` mirrors the Retry-After header."""
    return {"error": code, "detail": detail, "retry_after_s": retry_after_s}
