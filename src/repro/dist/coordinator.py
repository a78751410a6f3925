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
       POST /v1/complete           stream a shard's results back (and,
                                   naming the worker, lease its next)
       GET  /v1/campaigns/<name>   partial aggregates, any time
       GET  /v1/healthz            liveness + campaign state
       GET  /v1/metricz            obs MetricsRegistry snapshot

Completed results are merged into the shared
:class:`~repro.sweep.store.ResultStore` with the exact
``store.put(key, metrics, config=..., seed=..., elapsed_s=...)`` call
the single-host engine makes, so the two paths produce byte-identical
stores.  The store is the only record of which jobs are done: the
campaign manifest's header (spec and job keys) is written once, and
shard transitions and failed jobs append to its journal.  Every lease
event lands in the
:class:`~repro.obs.registry.MetricsRegistry` (and, when a trace
session is attached, as ``LEASE_*``/``SHARD_COMPLETE`` instants on the
``"coordinator"`` track).
"""

from __future__ import annotations

import dataclasses
import json
from collections import Counter
from pathlib import Path
from typing import Optional

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
from repro.netutil import JsonService
from repro.netutil import (  # noqa: F401  (the threaded harness, re-exported)
    ServiceHandle as CoordinatorHandle,
    start_in_thread as start_coordinator_in_thread,
)
from repro.obs.events import EventKind
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


class Coordinator(JsonService):
    """One campaign's coordinator bound to one event loop.

    The listener, drain and request path are
    :class:`~repro.netutil.JsonService`'s; the coordinator adds its
    routes, campaign setup before listening (:meth:`prepare`) and the
    ``exit_when_done`` drain after an answer.
    """

    prefix = "dist"
    routes = JsonService.routes + (
        ("POST", "/v1/lease", "lease"),
        ("POST", "/v1/heartbeat", "heartbeat"),
        ("POST", "/v1/complete", "complete"),
        ("GET", "/v1/campaigns/", "campaigns"),
    )
    max_body_bytes = MAX_BODY_BYTES

    def __init__(
        self,
        spec: SweepSpec,
        config: CoordinatorConfig = CoordinatorConfig(),
        *,
        store: Optional[ResultStore] = None,
        clock: Clock = monotonic_clock,
        trace=None,
    ) -> None:
        super().__init__(config, clock)
        self.spec = spec
        self.store = store if store is not None else ResultStore(config.cache_dir)
        self.aggregator = CampaignAggregator(spec)
        self.manifest = CampaignManifest(self.store.root, spec.name)
        self.leases: Optional[LeaseManager] = None  # built in start()
        #: Completed trials that ran off the batch interpreter, by reason.
        self._fallbacks: Counter[str] = Counter()
        self._trace = None
        if trace is not None:
            self._trace = trace.trial(
                seed=spec.base_seed, config_description=f"campaign {spec.name}"
            )

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
            self.aggregator.spec_key,
            [job.key for job in self.aggregator.jobs],
        )
        remaining = self._settle_cached()
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

    # -- lifecycle and routing -----------------------------------------------

    async def start(self) -> None:
        self.prepare()
        await super().start()
        if self.config.exit_when_done and self._campaign_done():
            # Resumed into an already-finished campaign: nothing to serve.
            self.request_drain()

    def _after_response(self) -> None:
        if self.config.exit_when_done and self._campaign_done():
            self.request_drain()

    def _campaign_done(self) -> bool:
        return self.leases is not None and self.leases.done

    async def _handle(
        self, endpoint: str, path: str, headers: dict, body: bytes
    ) -> tuple[int, dict, dict]:
        # The handlers are called directly, not looked up in a table,
        # so the lint's call index follows their journal and store
        # writes from this coroutine (RPR011).
        if endpoint == "lease":
            return self._handle_lease(body)
        if endpoint == "heartbeat":
            return self._handle_heartbeat(body)
        if endpoint == "complete":
            return self._handle_complete(body)
        return self._campaign_status(path.removeprefix("/v1/campaigns/"))

    # -- endpoint handlers ---------------------------------------------------

    def _handle_lease(self, body: bytes) -> tuple[int, dict, dict]:
        try:
            worker = parse_lease_request(json.loads(body or b"null"))
        except json.JSONDecodeError as exc:
            return 400, {"error": "bad-json", "detail": str(exc)}, {}
        except DistProtocolError as exc:
            return exc.status, exc.body(), {}
        self._note_expiries()
        return 200, self._next_lease(worker), {}

    def _next_lease(self, worker: str) -> dict:
        """The lease answer for ``worker``: granted, wait or done.

        The one place a lease is granted, for ``lease`` and for the
        ``next`` of a ``complete`` alike: journal line, event and
        counter included.
        """
        if self._campaign_done():
            return done_body()
        lease = self.leases.acquire(worker)
        if lease is None:
            return wait_body(_WAIT_RETRY_S)
        self.metrics.counter("dist_leases", event="granted").inc()
        self.manifest.record_shard(
            lease.shard.shard_id, "leased",
            worker=worker, token=lease.token,
            jobs=[job.index for job in lease.shard.jobs],
        )
        self._emit(
            EventKind.LEASE_GRANTED,
            {"token": lease.token, "shard": lease.shard.shard_id,
             "worker": worker},
        )
        self._refresh_gauges()
        return granted_body(
            lease.token,
            lease.shard.shard_id,
            [job_wire(job) for job in lease.shard.jobs],
            ttl_s=self.config.lease_ttl_s,
            retries=self.config.retries,
        )

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
            token, results, worker = parse_complete_request(
                json.loads(body or b"null")
            )
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
        self.manifest.record_shard(
            shard.shard_id, "done",
            jobs=[job.index for job in shard.jobs],
        )
        self._emit(
            EventKind.SHARD_COMPLETE,
            {"token": token, "shard": shard.shard_id,
             "jobs": len(shard.jobs)},
        )
        self._refresh_gauges()
        answer = {
            "protocol": DIST_PROTOCOL_VERSION,
            "status": "accepted",
            "duplicate": False,
            "campaign_complete": self._campaign_done(),
        }
        if worker is not None:
            answer["next"] = self._next_lease(worker)
        return 200, answer, {}

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
                self.metrics.counter("dist_jobs", outcome="completed").inc()
                reason = entry.get("fallback")
                if reason:
                    reason = str(reason)
                    self._fallbacks[reason] += 1
                    self.metrics.counter(
                        "dist_batch_fallback_trials", reason=reason
                    ).inc()
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
        body["batch_fallback_trials"] = dict(sorted(self._fallbacks.items()))
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
        """Fold lazily detected lease expiries into metrics/journal."""
        for record in self.leases.sweep_expired():
            self.metrics.counter("dist_leases", event="expired").inc()
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

