"""The campaign coordinator: leases out shards, merges streamed results.

One :class:`Coordinator` owns one campaign.  On startup it

1. expands the spec and **pre-settles every job already in the
   store** (content addressing *is* the resume mechanism — a restarted
   campaign simply finds its finished trials by key),
2. slices the remaining jobs into contiguous shards
   (:mod:`repro.dist.shards`) under a :class:`~repro.dist.leases.LeaseManager`,
3. serves the worker protocol (docs/DIST.md) over the shared
   :mod:`repro.netutil` HTTP dialect::

       POST /v1/lease              check out the next pending shard
       POST /v1/heartbeat          keep a lease alive
       POST /v1/complete           stream a shard's results back
       GET  /v1/campaigns/<name>   partial aggregates, any time
       GET  /v1/healthz            liveness + campaign state
       GET  /v1/metricz            obs MetricsRegistry snapshot

Completed results are merged into the shared
:class:`~repro.sweep.store.ResultStore` with the exact
``store.put(key, metrics, config=..., seed=..., elapsed_s=...)`` call
the single-host engine makes, so the two paths produce byte-identical
stores.  The campaign manifest records per-key job status plus shard
lifecycle, and every lease event lands in the
:class:`~repro.obs.registry.MetricsRegistry` (and, when a trace
session is attached, as ``LEASE_*``/``SHARD_COMPLETE`` instants on the
``"coordinator"`` track).
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import json
import signal
import threading
from pathlib import Path
from typing import Callable, Optional

from repro.core.metrics import MergeMetrics
from repro.dist.aggregate import CampaignAggregator
from repro.dist.leases import LeaseError, LeaseManager
from repro.dist.protocol import (
    DIST_PROTOCOL_VERSION,
    DistProtocolError,
    done_body,
    granted_body,
    lease_lost_body,
    parse_complete_request,
    parse_heartbeat_request,
    parse_lease_request,
    wait_body,
)
from repro.dist.shards import DEFAULT_SHARD_SIZE, job_wire, make_shards
from repro.netutil import (
    READ_TIMEOUT_S,
    REQUEST_READ_ERRORS,
    method_not_allowed,
    read_http_request,
    write_json_response,
)
from repro.obs.events import EventKind
from repro.obs.registry import MetricsRegistry
from repro.serve.clock import Clock, monotonic_clock
from repro.sweep.keys import config_to_dict
from repro.sweep.spec import SweepSpec
from repro.sweep.store import DEFAULT_CACHE_DIR, CampaignManifest, ResultStore

#: Body size limit (a completed shard of metrics is well under this).
MAX_BODY_BYTES = 4 << 20

#: What a worker is told to wait when every shard is leased elsewhere.
_WAIT_RETRY_S = 0.25


@dataclasses.dataclass(frozen=True)
class CoordinatorConfig:
    """Operational knobs of one coordinator instance."""

    host: str = "127.0.0.1"
    port: int = 8178
    #: Jobs per shard — the lease (and completion-streaming) granularity.
    shard_size: int = DEFAULT_SHARD_SIZE
    #: Lease TTL; a worker silent for this long forfeits its shard.
    lease_ttl_s: float = 30.0
    #: Per-job retry attempts workers should make before reporting failure.
    retries: int = 1
    #: Content-addressed result store shared with sweep/serve.
    cache_dir: str | Path = DEFAULT_CACHE_DIR
    #: Stop serving (and release run()) once every shard is done.
    exit_when_done: bool = False
    #: How long a drain waits for in-flight connections.
    drain_grace_s: float = 5.0

    def __post_init__(self) -> None:
        if self.shard_size < 1:
            raise ValueError("shard_size must be >= 1")
        if self.lease_ttl_s <= 0:
            raise ValueError("lease_ttl_s must be > 0")
        if self.retries < 1:
            raise ValueError("retries must be >= 1")


class Coordinator:
    """One campaign's coordinator bound to one event loop."""

    def __init__(
        self,
        spec: SweepSpec,
        config: CoordinatorConfig = CoordinatorConfig(),
        *,
        store: Optional[ResultStore] = None,
        clock: Clock = monotonic_clock,
        trace=None,
    ) -> None:
        self.spec = spec
        self.config = config
        self.clock = clock
        self.store = store if store is not None else ResultStore(config.cache_dir)
        self.metrics = MetricsRegistry()
        self.aggregator = CampaignAggregator(spec)
        self.manifest = CampaignManifest(self.store.root, spec.name)
        self.port: Optional[int] = None
        self.leases: Optional[LeaseManager] = None  # built in start()
        self._trace = None
        if trace is not None:
            self._trace = trace.trial(
                seed=spec.base_seed, config_description=f"campaign {spec.name}"
            )
        self._started_at: Optional[float] = None
        self._draining = False
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stopped: Optional[asyncio.Event] = None
        self._active: set[asyncio.Task] = set()
        self._drain_task: Optional[asyncio.Task] = None
        #: shard_id -> worker whose lease on it expired; threaded into
        #: later manifest records so a finished campaign still shows
        #: which shards were reclaimed from crashed workers.
        self._reclaimed: dict[str, str] = {}

    # -- campaign setup ------------------------------------------------------

    def _settle_cached(self) -> list:
        """Resume: settle every job whose key is already in the store.

        Returns the jobs that still need computing.  This is the whole
        resume story — no lease state survives a coordinator restart,
        only results, and results are all that matters.
        """
        remaining = []
        for job in self.aggregator.jobs:
            metrics = self.store.get(job.key)
            if metrics is not None:
                self.aggregator.record(job.index, metrics, cached=True)
                self.metrics.counter("dist_jobs", outcome="cached").inc()
            else:
                remaining.append(job)
        return remaining

    def prepare(self) -> None:
        """Expand, pre-settle, shard, and checkpoint (idempotent)."""
        if self.leases is not None:
            return
        self.manifest.begin(
            self.spec.to_dict(),
            self.spec.spec_key(),
            [job.key for job in self.aggregator.jobs],
        )
        remaining = self._settle_cached()
        for job in self.aggregator.jobs:
            if self.aggregator.metrics_for(job.index) is not None:
                self.manifest.record(job.key, "done")
        shards = make_shards(remaining, self.config.shard_size)
        self.leases = LeaseManager(
            shards, ttl_s=self.config.lease_ttl_s, clock=self.clock
        )
        for shard in shards:
            self.manifest.record_shard(
                shard.shard_id, "pending",
                jobs=[job.index for job in shard.jobs],
            )
        self._refresh_gauges()

    # -- lifecycle (mirrors serve.SimulationServer) --------------------------

    async def start(self) -> None:
        self.prepare()
        self._loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        self._started_at = self.clock()
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.config.exit_when_done and self._campaign_done():
            # Resumed into an already-finished campaign: nothing to serve.
            self.request_drain()

    async def run(
        self,
        *,
        install_signal_handlers: bool = True,
        on_ready: Optional[Callable[[], None]] = None,
    ) -> None:
        await self.start()
        if install_signal_handlers:
            self._install_signal_handlers()
        if on_ready is not None:
            on_ready()
        await self._stopped.wait()

    def _install_signal_handlers(self) -> None:
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(signum, self.request_drain)
            except (NotImplementedError, RuntimeError, ValueError):
                break

    def request_drain(self) -> None:
        """Stop accepting, finish in-flight answers, release run()."""
        if self._draining:
            return
        self._draining = True
        self._drain_task = self._loop.create_task(self._drain())

    async def _drain(self) -> None:
        self._server.close()
        await self._server.wait_closed()
        if self._active:
            done, straggling = await asyncio.wait(
                self._active, timeout=self.config.drain_grace_s
            )
            for task in straggling:
                task.cancel()
            if straggling:
                await asyncio.wait(straggling, timeout=1.0)
        self._stopped.set()

    @property
    def draining(self) -> bool:
        return self._draining

    def _campaign_done(self) -> bool:
        return self.leases is not None and self.leases.done

    # -- HTTP ----------------------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._active.add(task)
        try:
            await self._serve_one(reader, writer)
        finally:
            self._active.discard(task)
            writer.close()
            with contextlib.suppress(OSError):
                await writer.wait_closed()

    async def _serve_one(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            parsed = await asyncio.wait_for(
                read_http_request(reader, max_body_bytes=MAX_BODY_BYTES),
                READ_TIMEOUT_S,
            )
        except REQUEST_READ_ERRORS:
            return
        if parsed is None:
            return
        method, path, headers, body = parsed
        try:
            status, payload, extra = self._dispatch(method, path, body)
        except Exception as exc:
            # Request isolation boundary: one failing handler answers
            # 500; the coordinator keeps serving every other worker.
            status, extra = 500, {}
            payload = {"error": "internal", "detail": f"{type(exc).__name__}"}
        self.metrics.counter("dist_responses", code=status).inc()
        await write_json_response(writer, status, payload, extra)
        if self.config.exit_when_done and self._campaign_done():
            self.request_drain()

    def _dispatch(
        self, method: str, path: str, body: Optional[bytes]
    ) -> tuple[int, dict, dict]:
        self.metrics.counter(
            "dist_requests", endpoint=_endpoint_label(path)
        ).inc()
        if body is None:
            return 413, {"error": "payload-too-large",
                         "detail": f"body exceeds {MAX_BODY_BYTES} bytes"}, {}
        if path == "/v1/healthz":
            if method != "GET":
                return method_not_allowed("GET")
            return 200, self._health_body(), {}
        if path == "/v1/metricz":
            if method != "GET":
                return method_not_allowed("GET")
            self._refresh_gauges()
            return 200, self.metrics.to_dict(), {}
        if path.startswith("/v1/campaigns/"):
            if method != "GET":
                return method_not_allowed("GET")
            return self._campaign_status(path.removeprefix("/v1/campaigns/"))
        if path == "/v1/lease":
            if method != "POST":
                return method_not_allowed("POST")
            return self._handle_lease(body)
        if path == "/v1/heartbeat":
            if method != "POST":
                return method_not_allowed("POST")
            return self._handle_heartbeat(body)
        if path == "/v1/complete":
            if method != "POST":
                return method_not_allowed("POST")
            return self._handle_complete(body)
        return 404, {"error": "not-found", "detail": f"no route for {path}"}, {}

    # -- endpoint handlers ---------------------------------------------------

    def _handle_lease(self, body: bytes) -> tuple[int, dict, dict]:
        try:
            worker = parse_lease_request(json.loads(body or b"null"))
        except json.JSONDecodeError as exc:
            return 400, {"error": "bad-json", "detail": str(exc)}, {}
        except DistProtocolError as exc:
            return exc.status, exc.body(), {}
        self._note_expiries()
        if self._campaign_done():
            return 200, done_body(), {}
        lease = self.leases.acquire(worker)
        if lease is None:
            return 200, wait_body(_WAIT_RETRY_S), {}
        self.metrics.counter("dist_leases", event="granted").inc()
        fields = {}
        if lease.shard.shard_id in self._reclaimed:
            fields["reclaimed_from"] = self._reclaimed[lease.shard.shard_id]
        self.manifest.record_shard(
            lease.shard.shard_id, "leased",
            worker=worker, token=lease.token,
            jobs=[job.index for job in lease.shard.jobs],
            **fields,
        )
        self._emit(
            EventKind.LEASE_GRANTED,
            {"token": lease.token, "shard": lease.shard.shard_id,
             "worker": worker},
        )
        self._refresh_gauges()
        return 200, granted_body(
            lease.token,
            lease.shard.shard_id,
            [job_wire(job) for job in lease.shard.jobs],
            ttl_s=self.config.lease_ttl_s,
            retries=self.config.retries,
        ), {}

    def _handle_heartbeat(self, body: bytes) -> tuple[int, dict, dict]:
        try:
            token = parse_heartbeat_request(json.loads(body or b"null"))
        except json.JSONDecodeError as exc:
            return 400, {"error": "bad-json", "detail": str(exc)}, {}
        except DistProtocolError as exc:
            return exc.status, exc.body(), {}
        self._note_expiries()
        try:
            lease = self.leases.heartbeat(token)
        except LeaseError as exc:
            return 409, lease_lost_body(exc.detail), {}
        self.metrics.counter("dist_leases", event="renewed").inc()
        self._emit(
            EventKind.LEASE_RENEWED,
            {"token": token, "shard": lease.shard.shard_id},
        )
        return 200, {
            "protocol": DIST_PROTOCOL_VERSION,
            "status": "renewed",
            "ttl_s": self.config.lease_ttl_s,
        }, {}

    def _handle_complete(self, body: bytes) -> tuple[int, dict, dict]:
        try:
            token, results = parse_complete_request(json.loads(body or b"null"))
        except json.JSONDecodeError as exc:
            return 400, {"error": "bad-json", "detail": str(exc)}, {}
        except DistProtocolError as exc:
            return exc.status, exc.body(), {}
        self._note_expiries()
        try:
            shard, duplicate = self.leases.complete(token)
        except LeaseError as exc:
            return 409, lease_lost_body(exc.detail), {}
        if duplicate:
            self.metrics.counter("dist_leases", event="duplicate").inc()
            return 200, {
                "protocol": DIST_PROTOCOL_VERSION,
                "status": "accepted",
                "duplicate": True,
            }, {}
        self._merge_results(shard, results)
        self.metrics.counter("dist_leases", event="completed").inc()
        fields = {}
        if shard.shard_id in self._reclaimed:
            fields["reclaimed_from"] = self._reclaimed[shard.shard_id]
        self.manifest.record_shard(
            shard.shard_id, "done",
            jobs=[job.index for job in shard.jobs],
            **fields,
        )
        self._emit(
            EventKind.SHARD_COMPLETE,
            {"token": token, "shard": shard.shard_id,
             "jobs": len(shard.jobs)},
        )
        self._refresh_gauges()
        return 200, {
            "protocol": DIST_PROTOCOL_VERSION,
            "status": "accepted",
            "duplicate": False,
            "campaign_complete": self._campaign_done(),
        }, {}

    def _merge_results(self, shard, results: list[dict]) -> None:
        """Atomic-merge one shard's streamed results into the store."""
        by_index = {job.index: job for job in shard.jobs}
        for entry in results:
            job = by_index.get(entry["index"])
            if job is None:
                continue  # not this shard's job: ignore, don't trust
            if entry.get("ok"):
                try:
                    metrics = MergeMetrics.from_dict(entry["metrics"])
                except (KeyError, TypeError, ValueError):
                    self.aggregator.record_failure(
                        job.index, "undecodable metrics payload"
                    )
                    self.manifest.record(job.key, "failed")
                    self.metrics.counter("dist_jobs", outcome="failed").inc()
                    continue
                self.store.put(
                    job.key,
                    metrics,
                    config=config_to_dict(job.config),
                    seed=job.seed,
                    elapsed_s=entry.get("elapsed_s"),
                )
                self.aggregator.record(job.index, metrics)
                self.manifest.record(job.key, "done")
                self.metrics.counter("dist_jobs", outcome="completed").inc()
            else:
                self.aggregator.record_failure(
                    job.index, str(entry.get("error", "unknown error"))
                )
                self.manifest.record(job.key, "failed")
                self.metrics.counter("dist_jobs", outcome="failed").inc()

    def _campaign_status(self, name: str) -> tuple[int, dict, dict]:
        if name != self.spec.name:
            return 404, {"error": "not-found",
                         "detail": f"unknown campaign {name!r}"}, {}
        body = self.aggregator.snapshot()
        body["protocol"] = DIST_PROTOCOL_VERSION
        body["shards"] = self.leases.counts()
        body["leases"] = {
            "live": len(self.leases.live_leases()),
            "expired_total": self.leases.expired_total,
            "duplicate_total": self.leases.duplicate_total,
        }
        return 200, body, {}

    def _health_body(self) -> dict:
        counts = self.leases.counts()
        return {
            "status": "draining" if self._draining else "ok",
            "protocol": DIST_PROTOCOL_VERSION,
            "campaign": self.spec.name,
            "uptime_s": self.clock() - self._started_at,
            "shards": counts,
            "complete": self._campaign_done(),
        }

    # -- obs -----------------------------------------------------------------

    def _note_expiries(self) -> None:
        """Fold lazily detected lease expiries into metrics/manifest."""
        for record in self.leases.sweep_expired():
            self.metrics.counter("dist_leases", event="expired").inc()
            self._reclaimed[record.shard_id] = record.worker
            self.manifest.record_shard(
                record.shard_id, "pending", reclaimed_from=record.worker
            )
            self._emit(
                EventKind.LEASE_EXPIRED,
                {"token": record.token, "shard": record.shard_id,
                 "worker": record.worker},
            )

    def _emit(self, kind: EventKind, args: dict) -> None:
        if self._trace is None:
            return
        now_ms = (self.clock() - (self._started_at or 0.0)) * 1000.0
        self._trace.instant(kind, "coordinator", now_ms, args)

    def _refresh_gauges(self) -> None:
        if self.leases is None:
            return
        counts = self.leases.counts()
        for status, value in counts.items():
            self.metrics.gauge("dist_shards", status=status).set(float(value))
        self.metrics.gauge("dist_jobs_in_flight").set(
            float(self.aggregator.in_flight)
        )


def _endpoint_label(path: str) -> str:
    """Bounded-cardinality endpoint label for metrics."""
    if path.startswith("/v1/campaigns/"):
        return "campaigns"
    known = {"/v1/lease": "lease", "/v1/heartbeat": "heartbeat",
             "/v1/complete": "complete", "/v1/healthz": "healthz",
             "/v1/metricz": "metricz"}
    return known.get(path, "other")


# -- threaded harness (tests, benchmarks, smoke scripts) ---------------------


class CoordinatorHandle:
    """A running coordinator on a daemon thread, stoppable from outside."""

    def __init__(self, coordinator: Coordinator, thread: threading.Thread):
        self.coordinator = coordinator
        self.thread = thread

    @property
    def address(self) -> tuple[str, int]:
        return self.coordinator.config.host, self.coordinator.port

    def stop(self, timeout_s: float = 15.0) -> None:
        loop = self.coordinator._loop
        if loop is not None and not loop.is_closed():
            with contextlib.suppress(RuntimeError):
                loop.call_soon_threadsafe(self.coordinator.request_drain)
        self.thread.join(timeout_s)

    def join(self, timeout_s: float = 60.0) -> None:
        """Wait for the coordinator to finish on its own
        (``exit_when_done`` campaigns)."""
        self.thread.join(timeout_s)

    def __enter__(self) -> "CoordinatorHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def start_coordinator_in_thread(
    coordinator: Coordinator, *, ready_timeout_s: float = 15.0
) -> CoordinatorHandle:
    """Run ``coordinator`` on a daemon thread; returns once accepting."""
    ready = threading.Event()
    failures: list[BaseException] = []

    def runner() -> None:
        try:
            asyncio.run(
                coordinator.run(
                    install_signal_handlers=False, on_ready=ready.set
                )
            )
        except BaseException as exc:
            failures.append(exc)
            ready.set()
            raise

    thread = threading.Thread(
        target=runner, name="repro-dist-coordinator", daemon=True
    )
    thread.start()
    if not ready.wait(ready_timeout_s):
        raise RuntimeError("coordinator did not start within the timeout")
    if failures:
        raise RuntimeError("coordinator failed to start") from failures[0]
    return CoordinatorHandle(coordinator, thread)
