"""The disk drive service process.

Each drive runs one simulation process that drains a FIFO request queue.
A request for ``n`` contiguous blocks is charged:

* **seek**: ``|target cylinder - head cylinder| * S`` milliseconds,
* **rotational latency**: one sample from ``Uniform(0, 2R)`` (mean
  ``R``, half a revolution -- the paper's convention), and
* **transfer**: ``n * T`` milliseconds, with one block-arrival event
  fired after each ``T``.

Contiguous blocks inside a single request stream at transfer rate; a new
request always pays seek (possibly over zero cylinders) plus a fresh
rotational latency, exactly as the paper's analytical model assumes
(``R/N`` per block under ``N``-block intra-run prefetching).  The
``stream_across_requests`` flag relaxes this for ablation studies: a
request that starts at the block address immediately following the
previous transfer is charged transfer time only.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Callable, Generator, Optional

from repro.disks.geometry import DiskGeometry
from repro.disks.request import BlockFetchRequest, FetchKind
from repro.obs.events import EventKind
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.parameters import DiskParameters
    from repro.faults.injector import FaultInjector
    from repro.obs.collector import TrialTrace
    from repro.sim.kernel import Simulator

BusyCallback = Callable[[int, bool], None]


class QueueDiscipline(enum.Enum):
    """Order in which a drive services its pending requests.

    ``FIFO`` is the paper's model (and the default).  ``SSTF``
    (shortest seek time first) picks the pending request whose target
    cylinder is closest to the head -- a scheduling ablation the paper
    does not explore.  Demand requests always preempt prefetches in the
    SSTF ordering so the merge cannot be starved by a stream of nearby
    prefetches.
    """

    FIFO = "fifo"
    SSTF = "sstf"


@dataclass
class DriveStats:
    """Per-drive service-time accounting (all times in milliseconds).

    The fault counters stay zero unless a
    :class:`~repro.faults.injector.FaultInjector` is installed:
    ``faults`` counts failed service attempts, ``retries`` the backoff
    waits taken, ``retry_histogram`` maps attempts-needed-to-succeed
    (as a string key, for JSON) to request counts, and ``fault_ms``
    attributes the time lost to faults -- failed attempts, backoff,
    slowdown excess over healthy timing, and outage waits.
    """

    requests: int = 0
    blocks: int = 0
    demand_requests: int = 0
    prefetch_requests: int = 0
    seek_ms: float = 0.0
    rotation_ms: float = 0.0
    transfer_ms: float = 0.0
    busy_ms: float = 0.0
    queue_wait_ms: float = 0.0
    sequential_requests: int = 0
    seek_cylinders: int = 0
    max_queue_length: int = 0
    faults: int = 0
    retries: int = 0
    retry_backoff_ms: float = 0.0
    fault_ms: float = 0.0
    outage_wait_ms: float = 0.0
    requeues: int = 0
    retry_histogram: dict[str, int] = field(default_factory=dict)
    samples: dict[str, float] = field(default_factory=dict)

    @property
    def service_ms(self) -> float:
        return self.seek_ms + self.rotation_ms + self.transfer_ms

    def to_dict(self) -> dict:
        """JSON-able snapshot (see :meth:`from_dict`).

        Keys in field order; the two histograms are fresh copies, so
        the snapshot never aliases live counters.
        """
        return {
            "requests": self.requests,
            "blocks": self.blocks,
            "demand_requests": self.demand_requests,
            "prefetch_requests": self.prefetch_requests,
            "seek_ms": self.seek_ms,
            "rotation_ms": self.rotation_ms,
            "transfer_ms": self.transfer_ms,
            "busy_ms": self.busy_ms,
            "queue_wait_ms": self.queue_wait_ms,
            "sequential_requests": self.sequential_requests,
            "seek_cylinders": self.seek_cylinders,
            "max_queue_length": self.max_queue_length,
            "faults": self.faults,
            "retries": self.retries,
            "retry_backoff_ms": self.retry_backoff_ms,
            "fault_ms": self.fault_ms,
            "outage_wait_ms": self.outage_wait_ms,
            "requeues": self.requeues,
            "retry_histogram": dict(self.retry_histogram),
            "samples": dict(self.samples),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DriveStats":
        """Inverse of :meth:`to_dict`.

        Unknown keys are ignored and missing keys take their field
        defaults, so snapshots written by other schema versions (older
        or newer) always load.
        """
        if not data.keys() <= _DRIVE_STATS_FIELDS:
            data = {k: v for k, v in data.items() if k in _DRIVE_STATS_FIELDS}
        return cls(**data)


#: Every :class:`DriveStats` field name, read once for ``from_dict``.
_DRIVE_STATS_FIELDS = frozenset(f.name for f in fields(DriveStats))


class DiskDrive:
    """One independently operating input drive.

    Requests are submitted with :meth:`submit` and serviced first-come
    first-served by an internal process.  Block-arrival and completion
    events on the request object signal progress to the issuer.
    """

    def __init__(
        self,
        sim: "Simulator",
        drive_id: int,
        geometry: DiskGeometry,
        parameters: "DiskParameters",
        rng: random.Random,
        on_busy_change: Optional[BusyCallback] = None,
        stream_across_requests: bool = False,
        address_of: Optional[Callable[[BlockFetchRequest], int]] = None,
        discipline: QueueDiscipline = QueueDiscipline.FIFO,
        injector: Optional["FaultInjector"] = None,
        trace: Optional["TrialTrace"] = None,
        track: Optional[str] = None,
    ) -> None:
        self.sim = sim
        self.drive_id = drive_id
        self.geometry = geometry
        self.parameters = parameters
        self.rng = rng
        self.trace = trace
        self.track = track if track is not None else f"disk-{drive_id}"
        self.stats = DriveStats()
        self.stream_across_requests = stream_across_requests
        self.discipline = discipline
        self.injector = injector
        self._address_of = address_of
        self._pending: list[BlockFetchRequest] = []
        self._wakeup: Optional[Event] = None
        self._on_busy_change = on_busy_change
        self._is_busy = False
        self._head_cylinder = 0
        self._next_sequential_address: Optional[int] = None
        self._process = sim.process(self._service_loop(), name=f"disk-{drive_id}")

    @property
    def process(self):
        """The drive's service process (waitable; carries failures)."""
        return self._process

    @property
    def queue_length(self) -> int:
        return len(self._pending)

    @property
    def head_cylinder(self) -> int:
        return self._head_cylinder

    def submit(self, request: BlockFetchRequest) -> BlockFetchRequest:
        """Queue ``request`` for service; returns it for chaining."""
        self._pending.append(request)
        self.stats.max_queue_length = max(
            self.stats.max_queue_length, len(self._pending)
        )
        if self.trace is not None:
            self.trace.observe_queue_depth(self.track, len(self._pending))
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()
        return request

    def escalate(self, request: BlockFetchRequest) -> bool:
        """Re-queue a still-pending request at the head of the queue.

        The demand-read-timeout response: a demand request that has
        waited too long jumps every queued prefetch on the same drive.
        Returns False (and does nothing) when the request is already in
        service or finished.
        """
        try:
            self._pending.remove(request)
        except ValueError:
            return False
        self._pending.insert(0, request)
        self.stats.requeues += 1
        return True

    # ------------------------------------------------------------------
    # Service process
    # ------------------------------------------------------------------
    def _service_loop(self) -> Generator:
        while True:
            while not self._pending:
                self._set_busy(False)
                self._wakeup = self.sim.event()
                yield self._wakeup
                self._wakeup = None
            self._set_busy(True)
            request = self._pick_next()
            yield from self._service(request)

    def _pick_next(self) -> BlockFetchRequest:
        """Remove and return the next request per the discipline."""
        if self.discipline is QueueDiscipline.FIFO or len(self._pending) == 1:
            return self._pending.pop(0)
        # SSTF: demand requests first (oldest demand wins), then the
        # prefetch whose cylinder is nearest the head.  A run's blocks
        # must arrive in order, so only the *oldest* pending request of
        # each run is eligible for reordering.
        demand_positions = [
            i for i, r in enumerate(self._pending) if r.kind is FetchKind.DEMAND
        ]
        if demand_positions:
            return self._pending.pop(demand_positions[0])
        seen_runs: set[int] = set()
        eligible: list[int] = []
        for index, request in enumerate(self._pending):
            if request.run not in seen_runs:
                seen_runs.add(request.run)
                eligible.append(index)
        head = self._head_cylinder
        best = min(
            eligible,
            key=lambda i: abs(
                self.geometry.cylinder_of(self._resolve_address(self._pending[i]))
                - head
            ),
        )
        return self._pending.pop(best)

    def _service(self, request: BlockFetchRequest) -> Generator:
        sim = self.sim
        params = self.parameters
        injector = self.injector
        stats = self.stats
        trace = self.trace
        start = sim.now
        request.start_service_time = start
        stats.queue_wait_ms += start - request.issue_time

        first_address = self._resolve_address(request)
        target_cylinder = self.geometry.cylinder_of(first_address)
        last_address = first_address + request.count - 1

        sequential = (
            self.stream_across_requests
            and self._next_sequential_address is not None
            and first_address == self._next_sequential_address
        )

        # Each loop iteration is one service *attempt*.  Without an
        # injector (or with an empty plan) the first attempt always
        # succeeds and this reduces exactly to the paper's model.
        attempt = 0
        while True:
            attempt += 1
            if injector is not None:
                yield from self._wait_out_outage(request)

            if sequential and attempt == 1:
                seek_ms = 0.0
                rotation_ms = 0.0
                stats.sequential_requests += 1
            else:
                distance = abs(target_cylinder - self._head_cylinder)
                seek_ms = distance * params.seek_ms_per_cylinder
                rotation_ms = self.rng.uniform(0.0, params.rotation_period_ms)
                stats.seek_cylinders += distance

            factor = (
                injector.slowdown_factor(self.drive_id, sim.now)
                if injector is not None
                else 1.0
            )
            seek_cost = seek_ms * factor
            rotation_cost = rotation_ms * factor
            positioning = seek_cost + rotation_cost
            if positioning > 0:
                if trace is not None:
                    position_start = sim.now
                    if seek_cost > 0:
                        trace.span(
                            EventKind.SEEK,
                            self.track,
                            position_start,
                            position_start + seek_cost,
                        )
                    if rotation_cost > 0:
                        trace.span(
                            EventKind.ROTATION,
                            self.track,
                            position_start + seek_cost,
                            position_start + positioning,
                        )
                yield sim.timeout(positioning)
            stats.seek_ms += seek_cost
            stats.rotation_ms += rotation_cost

            transfer_cost = params.transfer_ms_per_block * factor
            failed = (
                injector.attempt_fails(self.drive_id, sim.now)
                if injector is not None
                else False
            )
            if not failed:
                transfer_start = sim.now if trace is not None else 0.0
                for offset, block_event in enumerate(request.block_events):
                    yield sim.timeout(transfer_cost)
                    block_event.succeed(
                        (request.run, request.first_block + offset)
                    )
                if trace is not None:
                    trace.span(
                        EventKind.TRANSFER,
                        self.track,
                        transfer_start,
                        sim.now,
                        {"blocks": request.count},
                    )
                stats.transfer_ms += request.count * transfer_cost
                stats.fault_ms += (factor - 1.0) * (
                    seek_ms
                    + rotation_ms
                    + request.count * params.transfer_ms_per_block
                )
                if attempt > 1:
                    key = str(attempt)
                    stats.retry_histogram[key] = (
                        stats.retry_histogram.get(key, 0) + 1
                    )
                break

            # Transient read error: the transfer is attempted in full
            # and discarded, then the drive backs off and retries (the
            # head ends past the target, so the retry reseeks from
            # there and pays a fresh rotational latency).
            failed_start = sim.now if trace is not None else 0.0
            yield sim.timeout(request.count * transfer_cost)
            if trace is not None:
                trace.span(
                    EventKind.TRANSFER,
                    self.track,
                    failed_start,
                    sim.now,
                    {"blocks": request.count, "failed": True},
                )
                trace.instant(
                    EventKind.FAULT, self.track, sim.now, {"attempt": attempt}
                )
            stats.transfer_ms += request.count * transfer_cost
            stats.faults += 1
            stats.fault_ms += positioning + request.count * transfer_cost
            self._head_cylinder = self.geometry.cylinder_of(last_address)
            injector.record_fault(self.drive_id, sim.now)
            if attempt >= injector.retry.max_attempts:
                self._abandon_request(request, attempt)
            delay = injector.retry.delay_ms(attempt, injector.rng)
            stats.retries += 1
            stats.retry_backoff_ms += delay
            stats.fault_ms += delay
            if delay > 0:
                if trace is not None:
                    trace.span(
                        EventKind.RETRY_BACKOFF,
                        self.track,
                        sim.now,
                        sim.now + delay,
                        {"attempt": attempt},
                    )
                yield sim.timeout(delay)

        finish = sim.now
        request.finish_time = finish
        request.completed.succeed(request)

        self._head_cylinder = self.geometry.cylinder_of(last_address)
        self._next_sequential_address = last_address + 1

        stats.requests += 1
        stats.blocks += request.count
        if request.kind is FetchKind.DEMAND:
            stats.demand_requests += 1
        else:
            stats.prefetch_requests += 1
        stats.busy_ms += finish - start
        if trace is not None:
            kind = (
                EventKind.DEMAND_FETCH
                if request.kind is FetchKind.DEMAND
                else EventKind.PREFETCH
            )
            # One span per whole request service, start to completion
            # (retries and backoff included): service on a drive is
            # sequential, so per-track sums of these spans equal
            # ``stats.busy_ms`` exactly.
            trace.span(
                kind,
                self.track,
                start,
                finish,
                {
                    "run": request.run,
                    "first_block": request.first_block,
                    "blocks": request.count,
                    "attempts": attempt,
                    "issue_ms": request.issue_time,
                },
            )
            trace.observe_service(
                self.track, kind.value, finish - start,
                start - request.issue_time,
            )

    def _wait_out_outage(self, request: BlockFetchRequest) -> Generator:
        """Sleep through any outage covering the current time."""
        injector = self.injector
        until = injector.outage_until(self.drive_id, self.sim.now)
        while until is not None:
            if until == math.inf:
                from repro.faults.injector import DriveOfflineError

                self._fail_request(
                    request,
                    DriveOfflineError(
                        f"drive {self.drive_id} is permanently offline; "
                        f"{request!r} can never be serviced"
                    ),
                )
            wait = until - self.sim.now
            self.stats.outage_wait_ms += wait
            self.stats.fault_ms += wait
            if self.trace is not None:
                self.trace.span(
                    EventKind.OUTAGE_WAIT, self.track, self.sim.now, until
                )
            yield self.sim.timeout(wait)
            until = injector.outage_until(self.drive_id, self.sim.now)

    def _abandon_request(self, request: BlockFetchRequest, attempts: int) -> None:
        """Give up on a request that exhausted its retry budget."""
        from repro.faults.injector import FaultExhaustedError

        histogram = self.stats.retry_histogram
        histogram["exhausted"] = histogram.get("exhausted", 0) + 1
        self._fail_request(
            request,
            FaultExhaustedError(
                f"drive {self.drive_id}: {request!r} failed all "
                f"{attempts} attempt(s) of its retry budget"
            ),
        )

    def _fail_request(
        self, request: BlockFetchRequest, error: Exception
    ) -> None:
        """Fail the request's events and crash the service process.

        Waiters (the merge CPU, synchronized ``AllOf``s) see the error
        thrown into them; :meth:`repro.core.merge_sim.MergeTrial.run`
        also surfaces it via the drive process when nobody waits.
        """
        for event in request.block_events:
            if not event.triggered:
                event.fail(error)
        if not request.completed.triggered:
            request.completed.fail(error)
        raise error

    def _resolve_address(self, request: BlockFetchRequest) -> int:
        if self._address_of is None:
            raise RuntimeError(
                "DiskDrive needs an address_of resolver to map requests to "
                "block addresses"
            )
        return self._address_of(request)

    def _set_busy(self, busy: bool) -> None:
        if busy == self._is_busy:
            return
        self._is_busy = busy
        if self._on_busy_change is not None:
            self._on_busy_change(self.drive_id, busy)
