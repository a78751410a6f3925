"""The worker loop: lease, execute, heartbeat, stream back, repeat.

A :class:`DistWorker` is deliberately dumb — all campaign state lives
at the coordinator.  The loop:

1. ``POST /v1/lease``.  ``done`` → exit; ``wait`` → sleep and retry.
2. Execute each leased job through the exact sweep
   :func:`~repro.sweep.worker.execute_job` path (kernel selection,
   fault plans, and the per-trial event budget all inherited), with the
   coordinator-relayed retry budget.  Between jobs, heartbeat whenever
   the lease TTL has less than half its budget left.
3. ``POST /v1/complete`` with every result (successes carry metrics,
   failures carry the error string).

A ``409`` from heartbeat or complete means the lease expired (this
worker stalled, or the campaign was re-coordinated): the shard is
abandoned without ceremony — the coordinator already re-issued it —
and the loop leases afresh.  A runaway trial fails deterministically
on its event budget (``TrialBudgetExceeded``) on any thread, so an
in-thread worker (tests, the bench harness) reports it like any other
failed job.

All timing goes through the injected clock/sleep seam
(:mod:`repro.serve.clock`); the module stays in the lint determinism
scope.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.dist.client import CoordinatorClient, is_lease_lost
from repro.serve.client import RetryPolicy, ServeError, ServeHTTPError
from repro.serve.clock import Clock, Sleep, blocking_sleep, monotonic_clock
from repro.sweep.worker import execute_job

#: Default first-contact retry: workers are routinely launched before
#: the coordinator's socket listens (e.g. `repro dist work` in one
#: terminal, `repro dist coordinate` still starting in another), so a
#: refused connection before first contact is retried with the same
#: capped-backoff shape ServeClient uses, not treated as fatal.
CONNECT_RETRY = RetryPolicy(max_attempts=6, backoff_s=0.25)


@dataclasses.dataclass
class WorkerStats:
    """What one worker did across its whole run."""

    leases: int = 0
    jobs_ok: int = 0
    jobs_failed: int = 0
    shards_completed: int = 0
    shards_lost: int = 0
    heartbeats: int = 0
    #: Refused/failed connection attempts retried before first contact.
    connect_retries: int = 0
    #: The coordinator vanished after we had talked to it — for an
    #: ``exit_when_done`` campaign that just means it finished first.
    coordinator_gone: bool = False

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "WorkerStats":
        names = {field.name for field in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in names})


class DistWorker:
    """One pull-loop worker against one coordinator."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8178,
        *,
        worker_id: str = "worker",
        client: Optional[CoordinatorClient] = None,
        clock: Clock = monotonic_clock,
        sleep: Sleep = blocking_sleep,
        poll_s: float = 0.25,
        connect_retry: RetryPolicy = CONNECT_RETRY,
    ) -> None:
        self.client = client if client is not None else CoordinatorClient(
            host, port, client_id=worker_id
        )
        self.worker_id = worker_id
        self.clock = clock
        self.sleep = sleep
        self.poll_s = poll_s
        self.connect_retry = connect_retry
        self.stats = WorkerStats()
        self._contacted = False

    def run(self, *, max_leases: Optional[int] = None) -> WorkerStats:
        """Pull and execute shards until the campaign reports done.

        ``max_leases`` bounds how many granted leases to process
        (tests); ``None`` runs to campaign completion.  A coordinator
        that disappears *after* first contact is treated as a finished
        ``exit_when_done`` campaign, not an error — by then every shard
        this worker could have helped with is settled or re-issuable.
        Before first contact, connection failures are retried with
        capped backoff (``connect_retry``): workers started ahead of
        the coordinator's socket wait for it instead of dying.
        """
        connect_attempts = 0
        while max_leases is None or self.stats.leases < max_leases:
            try:
                response = self.client.lease(self.worker_id)
            except ServeHTTPError:
                raise
            except ServeError:
                if self._contacted:
                    self.stats.coordinator_gone = True
                    break
                connect_attempts += 1
                if connect_attempts >= self.connect_retry.max_attempts:
                    raise
                self.stats.connect_retries += 1
                self.sleep(self.connect_retry.backoff_for(connect_attempts))
                continue
            self._contacted = True
            status = response.get("status")
            if status == "done":
                break
            if status == "wait":
                self.sleep(float(response.get("retry_after_s", self.poll_s)))
                continue
            if status != "granted":
                raise ServeError(f"unexpected lease answer: {response!r}")
            self.stats.leases += 1
            if self._process_lease(response["lease"]):
                break  # that complete finished the campaign
        return self.stats

    # -- one shard -----------------------------------------------------------

    def _process_lease(self, lease: dict) -> bool:
        """Execute one leased shard; True when the campaign completed."""
        token = lease["token"]
        ttl_s = float(lease["ttl_s"])
        retries = int(lease.get("retries", 1))
        renewed_at = self.clock()
        results: list[dict] = []
        for job in lease["jobs"]:
            renewed = self._maybe_heartbeat(token, renewed_at, ttl_s)
            if renewed is None:
                self.stats.shards_lost += 1
                return False  # lease gone: the shard is someone else's now
            renewed_at = renewed
            results.append(self._run_job(job, retries))
        try:
            answer = self.client.complete(token, results)
        except ServeHTTPError as exc:
            if is_lease_lost(exc):
                self.stats.shards_lost += 1
                return False
            raise
        self.stats.shards_completed += 1
        return bool(answer.get("campaign_complete"))

    def _maybe_heartbeat(
        self, token: str, renewed_at: float, ttl_s: float
    ) -> Optional[float]:
        """Renew when less than half the TTL remains.

        Returns the new renewal timestamp, or ``None`` when the lease
        is lost.
        """
        now = self.clock()
        if now - renewed_at < ttl_s / 2.0:
            return renewed_at
        try:
            self.client.heartbeat(token)
        except ServeHTTPError as exc:
            if is_lease_lost(exc):
                return None
            raise
        self.stats.heartbeats += 1
        return now

    def _run_job(self, job: dict, retries: int) -> dict:
        payload = {"config": job["config"], "trial": job["trial"]}
        error: Optional[str] = None
        for _attempt in range(max(1, retries)):
            try:
                outcome = execute_job(payload)
            except Exception as exc:
                # Job isolation boundary: one failing simulation must be
                # reported to the coordinator, never kill the worker (the
                # coordinator would wait out the lease TTL for nothing).
                error = f"{type(exc).__name__}: {exc}"
                continue
            self.stats.jobs_ok += 1
            return {
                "index": job["index"],
                "ok": True,
                "metrics": outcome["metrics"],
                "elapsed_s": outcome.get("elapsed_s"),
            }
        self.stats.jobs_failed += 1
        return {"index": job["index"], "ok": False, "error": error}
