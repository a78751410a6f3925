"""The worker loop: lease, execute, heartbeat, stream back, repeat.

A :class:`DistWorker` is deliberately dumb — all campaign state lives
at the coordinator.  The loop:

1. ``POST /v1/lease``.  ``done`` → exit; ``wait`` → sleep and retry.
2. Execute the leased jobs through the sweep engine's inline path
   (:func:`~repro.sweep.worker.execute_cell`: each grid cell's trials
   as one batch, trial by trial with the coordinator-relayed retry
   budget when the batch fails; kernel selection, fault plans, and the
   per-trial event budget all inherited).  Between cells, heartbeat
   whenever the lease TTL has less than half its budget left.
3. ``POST /v1/complete`` with every result (successes carry metrics,
   failures carry the error string) and the worker's id, so the answer
   carries the next lease answer (step 1) in the same round trip.

A ``409`` from heartbeat or complete means the lease expired (this
worker stalled, or the campaign was re-coordinated): the shard is
abandoned without ceremony — the coordinator already re-issued it —
and the loop leases afresh.  A runaway trial fails deterministically
on its event budget (``TrialBudgetExceeded``) on any thread, so an
in-thread worker (tests, the bench harness) reports it like any other
failed job.

All timing goes through the injected clock/sleep seam
(:mod:`repro.serve.clock`); the module stays in the lint determinism
scope.  A worker that built its own client closes its connection when
:meth:`DistWorker.run` returns.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.dist.client import CoordinatorClient, is_lease_lost
from repro.serve.client import (
    NO_RETRY,
    RetryPolicy,
    ServeError,
    ServeHTTPError,
)
from repro.serve.clock import Clock, Sleep, blocking_sleep, monotonic_clock
from repro.sweep.worker import cell_groups, execute_cell

#: Default first-contact retry: workers are routinely launched before
#: the coordinator's socket listens (e.g. `repro dist work` in one
#: terminal, `repro dist coordinate` still starting in another), so a
#: refused connection before first contact is retried with capped
#: backoff, not treated as fatal: ~19 s in all and at most 0.25 s
#: apart, so a worker started beside an ``exit_when_done`` coordinator
#: rarely misses a campaign that lasts under a second.  It is the
#: worker's only retry layer: the coordinator never answers
#: 429/503/504, so the built client retries nothing, and a refused
#: lease after first contact ends the run at once.
CONNECT_RETRY = RetryPolicy(
    max_attempts=80, backoff_s=0.05, max_backoff_s=0.25
)


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
        #: A client the caller passed in is the caller's to close.
        self._owns_client = client is None
        self.client = client if client is not None else CoordinatorClient(
            host, port, client_id=worker_id, sleep=sleep, retry=NO_RETRY
        )
        self.worker_id = worker_id
        self.clock = clock
        self.sleep = sleep
        self.poll_s = poll_s
        self.connect_retry = connect_retry
        self.stats = WorkerStats()
        self._contacted = False

    def run(self) -> WorkerStats:
        """Pull and execute shards until the campaign reports done.

        A coordinator that disappears *after* first contact is treated
        as a finished ``exit_when_done`` campaign, not an error — by then
        every shard this worker could have helped with is settled or
        re-issuable.
        Before first contact, connection failures are retried with
        capped backoff (``connect_retry``): workers started ahead of
        the coordinator's socket wait for it instead of dying.
        """
        try:
            self._run()
        finally:
            if self._owns_client:
                self.client.close()
        return self.stats

    def _run(self) -> None:
        connect_attempts = 0
        response: Optional[dict] = None  # a lease answer not yet acted on
        while True:
            if response is None:
                try:
                    response = self.client.lease(self.worker_id)
                except ServeHTTPError:
                    raise
                except ServeError:
                    if self._contacted:
                        self.stats.coordinator_gone = True
                        return
                    connect_attempts += 1
                    if connect_attempts >= self.connect_retry.max_attempts:
                        raise
                    self.stats.connect_retries += 1
                    self.sleep(
                        self.connect_retry.backoff_for(connect_attempts)
                    )
                    continue
                self._contacted = True
            status = response.get("status")
            if status == "done":
                return
            if status == "wait":
                self.sleep(float(response.get("retry_after_s", self.poll_s)))
                response = None
                continue
            if status != "granted":
                raise ServeError(f"unexpected lease answer: {response!r}")
            self.stats.leases += 1
            response = self._process_lease(response["lease"])

    # -- one shard -----------------------------------------------------------

    def _process_lease(self, lease: dict) -> Optional[dict]:
        """Execute one leased shard and stream its results back.

        Returns the next lease answer the ``complete`` carried, or
        ``None`` when there is none (the shard was lost, or the answer
        was a duplicate) and the loop must lease afresh.
        """
        token = lease["token"]
        ttl_s = float(lease["ttl_s"])
        attempts = max(1, int(lease.get("retries", 1)))
        renewed_at = self.clock()
        results: list[dict] = []
        for group in cell_groups(lease["jobs"], lambda job: job["cell"]):
            renewed = self._maybe_heartbeat(token, renewed_at, ttl_s)
            if renewed is None:
                self.stats.shards_lost += 1
                return None  # lease gone: the shard is someone else's now
            renewed_at = renewed
            outcomes, _retries = execute_cell(
                group[0]["config"],
                [job["trial"] for job in group],
                attempts=attempts,
            )
            for job, outcome in zip(group, outcomes):
                results.append(self._result(job["index"], outcome))
        try:
            answer = self.client.complete(token, results, self.worker_id)
        except ServeHTTPError as exc:
            if is_lease_lost(exc):
                self.stats.shards_lost += 1
                return None
            raise
        self.stats.shards_completed += 1
        return answer.get("next")

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

    def _result(self, index: int, outcome) -> dict:
        """One job's entry in the ``complete`` request."""
        if isinstance(outcome, Exception):
            self.stats.jobs_failed += 1
            error = f"{type(outcome).__name__}: {outcome}"
            return {"index": index, "ok": False, "error": error}
        self.stats.jobs_ok += 1
        result = {
            "index": index,
            "ok": True,
            "metrics": outcome["metrics"],
            "elapsed_s": outcome.get("elapsed_s"),
        }
        if outcome.get("fallback"):
            # Why the trial ran off the batch interpreter (protocol
            # readers ignore keys they do not know).
            result["fallback"] = outcome["fallback"]
        return result
