"""The event taxonomy of the observability layer.

A :class:`TraceEvent` is one timestamped thing the simulation did:
either a **span** (``duration_ms > 0`` or a zero-length interval that
still has semantic extent, e.g. a zero-cost CPU merge step recorded as
an instant) or an **instant** (``duration_ms is None``).  Events carry
the virtual-time clock of the simulation kernel, never a wall clock --
two identically seeded trials emit identical event streams on either
kernel, which is what makes traces diffable and cacheable.

Every event lives on a *track*: ``"cpu"`` for the merge process,
``"disk-0" .. "disk-D-1"`` for the input drives, ``"write-0" ..`` for
the output array, and the level tracks ``"busy-disks"`` / ``"cache"``.  Exporters map tracks to Chrome ``tid``s / text
timeline rows deterministically (CPU first, then disks by number).
"""

from __future__ import annotations

import enum
from typing import Optional


class EventKind(enum.Enum):
    """What one trace event records (the taxonomy of the layer).

    Spans (have a duration):

    * ``DEMAND_FETCH`` / ``PREFETCH``: one whole request service at a
      drive, from service start to completion (retries included) --
      their per-drive sums equal ``DriveStats.busy_ms`` exactly.
    * ``SEEK`` / ``ROTATION`` / ``TRANSFER``: the mechanical phases
      inside one service attempt.
    * ``CPU_MERGE``: merging the records of one block (a span when
      ``cpu_ms_per_block > 0``, an instant otherwise).
    * ``DEMAND_STALL``: the CPU waiting for a demand block.
    * ``WRITE_STALL``: the CPU blocked on write-buffer backpressure.
    * ``RETRY_BACKOFF``: a drive waiting out its retry delay.
    * ``OUTAGE_WAIT``: a drive sleeping through an injected outage.

    Instants (a point in virtual time):

    * ``FAULT``: one failed service attempt (transient read error).
    * ``DRIVE_DEGRADED``: the planner skipped a degraded drive.
    * ``DEMAND_TIMEOUT``: a demand stall exceeded its timeout and the
      stalled requests were escalated at their drives.
    * ``LEVEL``: a step function changed value (``args["value"]``): the
      ``"busy-disks"`` track counts busy input drives, the ``"cache"``
      track counts occupied-or-reserved cache blocks.  Read back through
      :mod:`repro.obs.views`.

    Coordinator instants (``repro.dist``; wall-clock ms from the
    injected Clock seam on the ``"coordinator"`` track, not virtual
    simulation time):

    * ``LEASE_GRANTED``: a shard lease handed to a worker.
    * ``LEASE_RENEWED``: a heartbeat extended a live lease.
    * ``LEASE_EXPIRED``: a lease outlived its TTL and its shard was
      returned to the pending pool (the crash-recovery path).
    * ``SHARD_COMPLETE``: a worker streamed a shard's results back and
      the shard was settled.
    """

    DEMAND_FETCH = "demand-fetch"
    PREFETCH = "prefetch"
    SEEK = "seek"
    ROTATION = "rotation"
    TRANSFER = "transfer"
    CPU_MERGE = "cpu-merge"
    DEMAND_STALL = "demand-stall"
    WRITE_STALL = "write-stall"
    RETRY_BACKOFF = "retry-backoff"
    OUTAGE_WAIT = "outage-wait"
    FAULT = "fault"
    DRIVE_DEGRADED = "drive-degraded"
    DEMAND_TIMEOUT = "demand-timeout"
    LEVEL = "level"
    LEASE_GRANTED = "lease-granted"
    LEASE_RENEWED = "lease-renewed"
    LEASE_EXPIRED = "lease-expired"
    SHARD_COMPLETE = "shard-complete"


#: Kinds whose per-drive span durations partition the drive's busy time.
SERVICE_KINDS = (EventKind.DEMAND_FETCH, EventKind.PREFETCH)

#: Tracks carrying ``LEVEL`` instants (step functions, not activity).
BUSY_DISKS_TRACK = "busy-disks"
CACHE_TRACK = "cache"


class TraceEvent:
    """One span or instant on one track (times in virtual ms).

    Slotted on purpose: traced runs emit one object per block merged
    plus several per I/O request, and the collector holds them all
    until export.
    """

    __slots__ = ("kind", "track", "start_ms", "duration_ms", "args")

    def __init__(
        self,
        kind: EventKind,
        track: str,
        start_ms: float,
        duration_ms: Optional[float] = None,
        args: Optional[dict] = None,
    ) -> None:
        self.kind = kind
        self.track = track
        self.start_ms = start_ms
        self.duration_ms = duration_ms
        self.args = args

    @property
    def is_span(self) -> bool:
        return self.duration_ms is not None

    @property
    def end_ms(self) -> float:
        """Span end (== start for instants)."""
        if self.duration_ms is None:
            return self.start_ms
        return self.start_ms + self.duration_ms

    def to_dict(self) -> dict:
        """JSON-able snapshot (see :meth:`from_dict`)."""
        data: dict = {
            "kind": self.kind.value,
            "track": self.track,
            "start_ms": self.start_ms,
        }
        if self.duration_ms is not None:
            data["duration_ms"] = self.duration_ms
        if self.args is not None:
            data["args"] = self.args
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "TraceEvent":
        """Inverse of :meth:`to_dict`."""
        return cls(
            kind=EventKind(data["kind"]),
            track=data["track"],
            start_ms=data["start_ms"],
            duration_ms=data.get("duration_ms"),
            args=data.get("args"),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceEvent):
            return NotImplemented
        return (
            self.kind is other.kind
            and self.track == other.track
            and self.start_ms == other.start_ms
            and self.duration_ms == other.duration_ms
            and self.args == other.args
        )

    def __repr__(self) -> str:
        extent = (
            f"+{self.duration_ms:.3f}ms" if self.duration_ms is not None else "!"
        )
        return (
            f"TraceEvent({self.kind.value} @{self.start_ms:.3f}ms {extent} "
            f"on {self.track})"
        )


def track_sort_key(track: str) -> tuple[int, int, str]:
    """Deterministic track ordering: cpu, disk-0..N, write-0..N, rest."""
    for rank, prefix in ((1, "disk-"), (2, "write-")):
        if track.startswith(prefix):
            suffix = track[len(prefix):]
            if suffix.isdigit():
                return (rank, int(suffix), track)
    if track == "cpu":
        return (0, 0, track)
    return (3, 0, track)
