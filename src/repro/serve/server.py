"""The asyncio HTTP/JSON simulation service.

One :class:`SimulationServer` is the repo's front door: it turns the
content-addressed sweep cache into a shared global answer store and
serves it over three endpoints::

    POST /v1/simulate   one configuration, trial-granular cached
    GET  /v1/healthz    liveness + drain state
    GET  /v1/metricz    obs MetricsRegistry snapshot (JSON)

Serve answers configurations; campaigns run through ``repro sweep
--cache-dir`` or ``repro dist`` on the same store, and every trial they
write is a hit here (one trial key, :func:`repro.sweep.keys.trial_keys`).

Every simulate request flows through the same pipeline:

1. **cache front** — each trial is looked up by its
   :func:`repro.sweep.keys.trial_keys` content address; hits are
   answered from one JSON read and never touch a worker.
2. **single flight** — concurrent identical misses coalesce onto one
   computation keyed by the same content address.
3. **bounded compute** — flight leaders take an
   :class:`~repro.serve.queue.AdmissionQueue` slot (shed with 503 when
   none is free) and run :func:`repro.sweep.worker.execute_job` on the
   shared fork pool (:class:`repro.sweep.pool.WorkerPool`, started on
   the first miss) — the sweep worker path, so
   kernel/fault/seed semantics and the per-trial event budget are
   inherited and every computed trial lands back in the shared store.
4. **admission control** — per-client token buckets answer 429 with
   ``Retry-After``; per-request deadlines answer 504; ``SIGTERM``
   triggers a graceful drain that finishes in-flight work first.

The HTTP layer — listener, drain, routing, request isolation and the
threaded harness — is the :class:`~repro.netutil.JsonService` shared
with the dist coordinator (DESIGN.md, "One JSON service lifecycle").
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import math
from pathlib import Path
from typing import Optional

from repro import api
from repro.core.metrics import MergeMetrics
from repro.core.parameters import SimulationConfig
from repro.netutil import JsonService
from repro.netutil import (  # noqa: F401  (the threaded harness, re-exported)
    ServiceHandle as ServerHandle,
    start_in_thread,
)
from repro.serve.cache import CacheFront
from repro.serve.clock import Clock, monotonic_clock
from repro.serve.limiter import RateLimiter
from repro.serve.protocol import (
    MAX_BODY_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    SimulateRequest,
    overload_body,
    parse_simulate_request,
    simulate_response,
)
from repro.serve.queue import AdmissionQueue, QueueFullError
from repro.serve.singleflight import SingleFlight
from repro.sweep.keys import config_to_dict
from repro.sweep.pool import WorkerPool
from repro.sweep.store import DEFAULT_CACHE_DIR, ResultStore
from repro.sweep.worker import execute_job


@dataclasses.dataclass(frozen=True)
class ServeConfig:
    """Operational knobs of one server instance (docs/SERVE.md)."""

    host: str = "127.0.0.1"
    port: int = 8177
    #: Worker processes for misses; 0 runs jobs on a thread in-process
    #: (tests, tiny deployments).
    workers: int = 0
    #: Token-bucket refill per client in requests/second; <= 0 disables.
    rate: float = 0.0
    #: Bucket capacity; None = max(1, rate).
    burst: Optional[float] = None
    #: Concurrent compute slots before misses are shed with 503; <= 0
    #: disables shedding.
    queue_limit: int = 64
    #: Default per-request deadline (seconds); <= 0 disables.
    deadline_s: float = 30.0
    #: Content-addressed result store shared with sweep campaigns.
    cache_dir: str | Path = DEFAULT_CACHE_DIR
    #: How long a drain waits for in-flight work before cancelling it.
    drain_grace_s: float = 10.0

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError("workers must be >= 0")
        if self.drain_grace_s < 0:
            raise ValueError("drain_grace_s must be >= 0")


class SimulationServer(JsonService):
    """One service instance bound to one event loop.

    Construct, then either ``asyncio.run(server.run())`` (the CLI
    path: installs SIGTERM/SIGINT drain handlers when possible) or
    :func:`start_in_thread` (tests, benchmarks, smoke scripts).  The
    listener, drain and request path are
    :class:`~repro.netutil.JsonService`'s.
    """

    prefix = "serve"
    routes = JsonService.routes + (
        ("POST", "/v1/simulate", "simulate"),
    )
    max_body_bytes = MAX_BODY_BYTES

    def __init__(
        self,
        config: ServeConfig = ServeConfig(),
        *,
        store: Optional[ResultStore] = None,
        clock: Clock = monotonic_clock,
    ) -> None:
        super().__init__(config, clock)
        self.cache = CacheFront(store or ResultStore(config.cache_dir))
        self.limiter = RateLimiter(config.rate, config.burst, clock=clock)
        self.admission = AdmissionQueue(config.queue_limit)
        self.flights = SingleFlight()
        self._pool = WorkerPool(config.workers)

    # -- service hooks -------------------------------------------------------

    async def _shutdown(self) -> None:
        self._pool.close()

    async def _handle(
        self, endpoint: str, path: str, headers: dict, body: bytes
    ) -> tuple[int, dict, dict]:
        return await self._handle_simulate(headers, body)

    def _health_body(self) -> dict:
        return {
            "status": "draining" if self._draining else "ok",
            "protocol": PROTOCOL_VERSION,
            "uptime_s": self.clock() - self._started_at,
            "inflight": len(self._active),
            "queue_depth": self.admission.depth,
        }

    def _refresh_gauges(self) -> None:
        self.metrics.gauge("serve_queue_depth").set(
            float(self.admission.depth)
        )
        self.metrics.gauge("serve_inflight").set(float(len(self._active)))
        self.metrics.gauge("serve_flights").set(float(len(self.flights)))

    # -- admission helpers ---------------------------------------------------

    def _shed(self, reason: str, code: str, detail: str,
              retry_after_s: float) -> tuple[int, dict, dict]:
        self.metrics.counter("serve_shed", reason=reason).inc()
        status = 429 if reason == "rate" else 503
        header = {"Retry-After": str(max(1, math.ceil(retry_after_s)))}
        return status, overload_body(code, detail, retry_after_s), header

    # -- /v1/simulate --------------------------------------------------------

    async def _handle_simulate(
        self, headers: dict, body: bytes
    ) -> tuple[int, dict, dict]:
        if self._draining:
            return self._shed(
                "draining", "draining",
                "server is draining; retry against another instance",
                self.config.drain_grace_s,
            )
        client = headers.get("x-client-id", "anonymous")
        if not self.limiter.allow(client):
            retry_after = self.limiter.retry_after_s(client)
            return self._shed(
                "rate", "rate-limited",
                f"client {client!r} exceeded its request rate",
                retry_after,
            )
        try:
            request = parse_simulate_request(json.loads(body or b"null"))
        except json.JSONDecodeError as exc:
            return 400, {"error": "bad-json", "detail": str(exc)}, {}
        except ProtocolError as exc:
            return exc.status, exc.body(), {}
        start = self.clock()
        deadline_s = (
            request.deadline_s
            if request.deadline_s is not None
            else self.config.deadline_s
        )
        try:
            if deadline_s and deadline_s > 0:
                trials, hits, coalesced = await asyncio.wait_for(
                    self._simulate(request), deadline_s
                )
            else:
                trials, hits, coalesced = await self._simulate(request)
        except QueueFullError as exc:
            return self._shed("queue", "overloaded", str(exc), 1.0)
        except asyncio.TimeoutError:
            self.metrics.counter("serve_deadline_exceeded").inc()
            return 504, {
                "error": "deadline-exceeded",
                "detail": f"request exceeded its {deadline_s:g}s deadline "
                "(the computation continues; retry to pick up the "
                "cached answer)",
            }, {}
        elapsed_ms = (self.clock() - start) * 1000.0
        response = simulate_response(
            request.config,
            trials,
            hits=hits,
            misses=len(trials) - hits,
            coalesced=coalesced,
            elapsed_ms=elapsed_ms,
        )
        return 200, response, {}

    async def _simulate(
        self, request: SimulateRequest
    ) -> tuple[list[MergeMetrics], int, int]:
        """The cache -> coalesce -> compute pipeline for one request.

        Returns ``(trials_in_order, hit_count, coalesced_count)``.
        """
        config = request.config
        # The store hits the filesystem (one open() per trial): keep it
        # off the event loop so a cold cache can't stall other requests.
        hits, misses = await self._loop.run_in_executor(
            None, self.cache.lookup_trials, config
        )
        if hits:
            self.metrics.counter("serve_cache", outcome="hit").inc(len(hits))
        results: dict[int, MergeMetrics] = dict(hits)
        coalesced_count = 0
        if misses:
            computed = await asyncio.gather(
                *(
                    self._compute_trial(config, trial, key)
                    for trial, key in misses.items()
                )
            )
            for trial, metrics, coalesced in computed:
                results[trial] = metrics
                outcome = "coalesced" if coalesced else "miss"
                self.metrics.counter("serve_cache", outcome=outcome).inc()
                coalesced_count += 1 if coalesced else 0
        ordered = [results[trial] for trial in range(config.trials)]
        return ordered, len(hits), coalesced_count

    async def _compute_trial(
        self, config: SimulationConfig, trial: int, key: str
    ) -> tuple[int, MergeMetrics, bool]:
        """One miss through single-flight + admission + the worker pool,
        coalesced on and stored under its store ``key``."""
        async def flight() -> MergeMetrics:
            async with self.admission.slot():
                payload = await self._execute(config, trial)
            self.metrics.counter("serve_computed").inc()
            reason = payload.get("fallback")
            if reason:
                # The batch kernel ran this trial off its interpreter.
                self.metrics.counter(
                    "batch_fallback_trials", reason=reason
                ).inc()
            # store_trial writes through atomic_write_json (mkstemp +
            # rename): blocking file I/O belongs on the executor.
            return await self._loop.run_in_executor(
                None, self.cache.store_trial, key, config, trial, payload
            )

        metrics, coalesced = await self.flights.run(key, flight)
        return trial, metrics, coalesced

    async def _execute(self, config: SimulationConfig, trial: int) -> dict:
        """Run one trial (the sweep worker path) on the worker pool,
        started on the first miss, or on the loop's thread executor."""
        # Resolved under this process's ambient options: a pool worker
        # runs under none.
        resolved = config_to_dict(api.resolve_config(config))
        payload = {"config": resolved, "trial": trial}
        if self.config.workers <= 0:
            return await self._loop.run_in_executor(None, execute_job, payload)
        future = self._pool.submit(self.config.workers, execute_job, payload)
        self.metrics.gauge("serve_pool_workers").set(float(self._pool.size))
        return await asyncio.wrap_future(future)
