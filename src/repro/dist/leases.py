"""Lease bookkeeping: the crash-safety core of the dist subsystem.

A :class:`LeaseManager` is a small synchronous state machine (the
coordinator's event loop is its lock) tracking every shard through
``pending → leased → done``:

* :meth:`acquire` hands the lowest-numbered pending shard to a worker
  under a token with a TTL.
* :meth:`heartbeat` extends a live lease's TTL.
* :meth:`complete` settles a shard.  Any *known* token settles — even
  an expired one, because results are content-addressed: if the shard
  was re-issued meanwhile, both workers computed byte-identical
  entries and the second ``complete`` is a recorded duplicate, not a
  conflict.
* Expiry is **lazy**: every public call first sweeps live leases
  against the injected clock and returns expired shards to the front
  of the pending pool (lowest shard first), so killing a worker never
  needs a background timer — the next lease request re-issues its
  work.

Time only ever enters through the injected ``clock`` (the
:mod:`repro.serve.clock` seam), keeping the whole state machine
deterministic under test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.dist.shards import Shard
from repro.serve.clock import Clock, monotonic_clock


class LeaseError(Exception):
    """An operation referenced a token the manager cannot honor."""

    def __init__(self, code: str, detail: str) -> None:
        super().__init__(detail)
        self.code = code
        self.detail = detail


@dataclass
class Lease:
    """One live (or historical) checkout of one shard."""

    token: str
    shard: Shard
    worker: str
    granted_at: float
    expires_at: float
    renewals: int = 0


@dataclass
class ExpiryRecord:
    """One lease the lazy sweep reclaimed (for metrics/tracing)."""

    token: str
    shard_id: str
    worker: str
    expired_at: float = field(default=0.0)


class LeaseManager:
    """Shard states and live leases of one campaign."""

    def __init__(
        self,
        shards: list[Shard],
        *,
        ttl_s: float = 30.0,
        clock: Clock = monotonic_clock,
    ) -> None:
        if ttl_s <= 0:
            raise ValueError("ttl_s must be > 0")
        self.ttl_s = ttl_s
        self.clock = clock
        self._shards = {shard.shard_id: shard for shard in shards}
        #: shard_id -> "pending" | "leased" | "done"
        self._status = {shard.shard_id: "pending" for shard in shards}
        self._pending = [shard.shard_id for shard in shards]
        self._live: dict[str, Lease] = {}  # token -> live lease
        self._token_shard: dict[str, str] = {}  # every token ever issued
        self._seq = 0
        self.expired_total = 0
        self.duplicate_total = 0

    # -- queries -------------------------------------------------------------

    @property
    def done(self) -> bool:
        return all(status == "done" for status in self._status.values())

    def counts(self) -> dict[str, int]:
        self.sweep_expired()
        counts = {"pending": 0, "leased": 0, "done": 0}
        for status in self._status.values():
            counts[status] += 1
        return counts

    def shard(self, shard_id: str) -> Shard:
        return self._shards[shard_id]

    def live_leases(self) -> list[Lease]:
        self.sweep_expired()
        return sorted(self._live.values(), key=lambda lease: lease.token)

    # -- the state machine ---------------------------------------------------

    def sweep_expired(self) -> list[ExpiryRecord]:
        """Reclaim every lease past its TTL; returns what was reclaimed."""
        now = self.clock()
        expired = [
            lease for lease in self._live.values() if lease.expires_at <= now
        ]
        records = []
        for lease in sorted(expired, key=lambda entry: entry.shard.shard_id):
            del self._live[lease.token]
            if self._status[lease.shard.shard_id] == "leased":
                self._status[lease.shard.shard_id] = "pending"
                # Front of the pool: reclaimed work is the oldest work.
                self._pending.insert(0, lease.shard.shard_id)
            self.expired_total += 1
            records.append(
                ExpiryRecord(
                    token=lease.token,
                    shard_id=lease.shard.shard_id,
                    worker=lease.worker,
                    expired_at=now,
                )
            )
        return records

    def acquire(self, worker: str) -> Optional[Lease]:
        """Lease the next pending shard to ``worker`` (None = nothing
        pending right now — either all done or all leased elsewhere)."""
        self.sweep_expired()
        if not self._pending:
            return None
        shard_id = self._pending.pop(0)
        self._status[shard_id] = "leased"
        self._seq += 1
        now = self.clock()
        lease = Lease(
            token=f"lease-{self._seq:06d}",
            shard=self._shards[shard_id],
            worker=worker,
            granted_at=now,
            expires_at=now + self.ttl_s,
        )
        self._live[lease.token] = lease
        self._token_shard[lease.token] = shard_id
        return lease

    def heartbeat(self, token: str) -> Lease:
        """Extend a live lease's TTL; raises :class:`LeaseError` if the
        lease already expired (its shard may be running elsewhere)."""
        self.sweep_expired()
        lease = self._live.get(token)
        if lease is None:
            if token in self._token_shard:
                raise LeaseError(
                    "lease-lost",
                    f"lease {token} expired; its shard was returned to "
                    "the pool",
                )
            raise LeaseError("unknown-token", f"no lease {token} was issued")
        lease.expires_at = self.clock() + self.ttl_s
        lease.renewals += 1
        return lease

    def complete(self, token: str) -> tuple[Shard, bool]:
        """Settle the shard behind ``token``; returns ``(shard, duplicate)``.

        Any issued token settles its shard — a worker that lost its
        lease mid-shard still computed correct, content-addressed
        results, so discarding them would only waste work.  If the
        shard is already done the call is an idempotent duplicate; if
        it was re-issued to another live worker, that newer lease is
        revoked (its eventual ``complete`` becomes the duplicate).
        """
        self.sweep_expired()
        shard_id = self._token_shard.get(token)
        if shard_id is None:
            raise LeaseError("unknown-token", f"no lease {token} was issued")
        shard = self._shards[shard_id]
        if self._status[shard_id] == "done":
            self.duplicate_total += 1
            return shard, True
        # Revoke any other live lease on the same shard.
        for other_token, lease in list(self._live.items()):
            if lease.shard.shard_id == shard_id:
                del self._live[other_token]
        if shard_id in self._pending:
            self._pending.remove(shard_id)
        self._status[shard_id] = "done"
        return shard, False
