"""The asyncio HTTP/JSON simulation service.

One :class:`SimulationServer` is the repo's front door: it turns the
content-addressed sweep cache into a shared global answer store and
serves it over five endpoints::

    POST /v1/simulate   one configuration, trial-granular cached
    POST /v1/sweep      submit a SweepSpec as a background job (202)
    GET  /v1/jobs/<id>  poll a submitted sweep job
    GET  /v1/healthz    liveness + drain state
    GET  /v1/metricz    obs MetricsRegistry snapshot (JSON)

Every simulate request flows through the same pipeline:

1. **cache front** — each trial is looked up by its
   :func:`repro.sweep.keys.trial_keys` content address; hits are
   answered from one JSON read and never touch a worker.
2. **single flight** — concurrent identical misses coalesce onto one
   computation keyed by the same content address.
3. **bounded compute** — flight leaders take an
   :class:`~repro.serve.queue.AdmissionQueue` slot (shed with 503 when
   none is free) and run :func:`repro.sweep.worker.execute_job` on a
   lazily created ``ProcessPoolExecutor`` — the sweep worker path, so
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
import concurrent.futures
import dataclasses
import json
import math
from pathlib import Path
from typing import Optional

from repro.core.metrics import AggregateMetrics, MergeMetrics
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
    parse_sweep_request,
    simulate_response,
)
from repro.serve.queue import AdmissionQueue, QueueFullError
from repro.serve.singleflight import SingleFlight
from repro.sweep.keys import config_to_dict
from repro.sweep.spec import SweepSpec
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
        ("POST", "/v1/sweep", "sweep"),
        ("GET", "/v1/jobs/", "jobs"),
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
        self._pool: Optional[concurrent.futures.ProcessPoolExecutor] = None
        self._jobs: dict[str, dict] = {}
        self._job_seq = 0

    # -- service hooks -------------------------------------------------------

    async def _shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    async def _handle(
        self, endpoint: str, path: str, headers: dict, body: bytes
    ) -> tuple[int, dict, dict]:
        if endpoint == "simulate":
            return await self._handle_simulate(headers, body)
        if endpoint == "sweep":
            return self._handle_sweep(headers, body)
        return self._job_status(path.removeprefix("/v1/jobs/"))

    def _health_body(self) -> dict:
        return {
            "status": "draining" if self._draining else "ok",
            "protocol": PROTOCOL_VERSION,
            "uptime_s": self.clock() - self._started_at,
            "inflight": len(self._active),
            "queue_depth": self.admission.depth,
            "jobs": len(self._jobs),
        }

    def _refresh_gauges(self) -> None:
        self.metrics.gauge("serve_queue_depth").set(
            float(self.admission.depth)
        )
        self.metrics.gauge("serve_inflight").set(float(len(self._active)))
        self.metrics.gauge("serve_flights").set(float(len(self.flights)))

    # -- admission helpers ---------------------------------------------------

    def _client_id(self, headers: dict) -> str:
        return headers.get("x-client-id", "anonymous")

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
        client = self._client_id(headers)
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
        self, config: SimulationConfig, trial: int, key: str, *,
        wait: bool = False,
    ) -> tuple[int, MergeMetrics, bool]:
        """One miss through single-flight + admission + the worker pool,
        coalesced on and stored under its store ``key``."""
        async def flight() -> MergeMetrics:
            async with self.admission.slot(wait=wait):
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
        """Run one trial on the worker pool (the sweep worker path)."""
        payload = {"config": config_to_dict(config), "trial": trial}
        return await self._loop.run_in_executor(
            self._ensure_pool(), execute_job, payload
        )

    def _ensure_pool(self) -> Optional[concurrent.futures.Executor]:
        """The worker pool, created on first miss — hits never pay for it."""
        if self.config.workers <= 0:
            return None
        if self._pool is None:
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.config.workers
            )
            self.metrics.gauge("serve_pool_workers").set(
                float(self.config.workers)
            )
        return self._pool

    # -- /v1/sweep + /v1/jobs ------------------------------------------------

    def _handle_sweep(
        self, headers: dict, body: bytes
    ) -> tuple[int, dict, dict]:
        if self._draining:
            return self._shed(
                "draining", "draining",
                "server is draining; retry against another instance",
                self.config.drain_grace_s,
            )
        client = self._client_id(headers)
        if not self.limiter.allow(client):
            return self._shed(
                "rate", "rate-limited",
                f"client {client!r} exceeded its request rate",
                self.limiter.retry_after_s(client),
            )
        try:
            spec = parse_sweep_request(json.loads(body or b"null"))
        except json.JSONDecodeError as exc:
            return 400, {"error": "bad-json", "detail": str(exc)}, {}
        except ProtocolError as exc:
            return exc.status, exc.body(), {}
        self._job_seq += 1
        job_id = f"job-{self._job_seq:06d}"
        jobs = spec.jobs()
        record = {
            "job": job_id,
            "status": "queued",
            "name": spec.name,
            "cells": len(spec.cell_params()),
            "trials_total": len(jobs),
            "trials_done": 0,
            "error": None,
        }
        self._jobs[job_id] = record
        task = self._loop.create_task(self._run_sweep_job(record, spec))
        self._background.add(task)
        task.add_done_callback(self._background.discard)
        self.metrics.counter("serve_sweep_jobs").inc()
        return 202, dict(record), {}

    async def _run_sweep_job(self, record: dict, spec: SweepSpec) -> None:
        """Background execution of one submitted sweep.

        Runs through the identical trial pipeline as ``/v1/simulate``
        (store, single flight, pool) but *waits* for compute slots
        instead of shedding — a background job wants throughput, not a
        latency bound.
        """
        record["status"] = "running"
        try:
            cells = []
            for config in spec.cells():
                hits, misses = await self._loop.run_in_executor(
                    None, self.cache.lookup_trials, config
                )
                if hits:
                    self.metrics.counter(
                        "serve_cache", outcome="hit"
                    ).inc(len(hits))
                record["trials_done"] += len(hits)
                results: dict[int, MergeMetrics] = dict(hits)
                for trial, key in misses.items():
                    _, metrics, coalesced = await self._compute_trial(
                        config, trial, key, wait=True
                    )
                    outcome = "coalesced" if coalesced else "miss"
                    self.metrics.counter("serve_cache", outcome=outcome).inc()
                    results[trial] = metrics
                    record["trials_done"] += 1
                aggregate = AggregateMetrics(
                    config.describe(),
                    [results[t] for t in range(config.trials)],
                )
                cells.append(aggregate.to_dict())
            record["cells_result"] = cells
            record["status"] = "done"
        except asyncio.CancelledError:
            record["status"] = "cancelled"
            record["error"] = "cancelled during drain"
            raise
        except Exception as exc:
            # Job isolation boundary: a failing sweep job must be
            # reported through /v1/jobs, never crash the server.
            record["status"] = "failed"
            record["error"] = f"{type(exc).__name__}: {exc}"

    def _job_status(self, job_id: str) -> tuple[int, dict, dict]:
        record = self._jobs.get(job_id)
        if record is None:
            return 404, {"error": "not-found",
                         "detail": f"unknown job {job_id!r}"}, {}
        return 200, dict(record), {}

