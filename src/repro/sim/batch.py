"""The batched trial-execution tier: a flattened merge-trial interpreter.

The ``batch`` kernel executes a whole batch of independent seeded
trials of one configuration through :func:`run_trial_batch` instead of
spinning up the event kernel once per trial.  The flattened interpreter
replaces the reference kernel's per-event machinery — heap pops,
generator resumes, event objects, callback lists — with a direct walk
of the merge trial's structure: the CPU's merge loop runs as plain
Python, each drive's service chain is computed arithmetically at the
reference kernel's decision points, and block arrivals are folded into
the cache as cursor scans over per-drive arrival lists.  Batch-wide
setup (run layout, addresses, the config description) is computed once
and shared by every trial.

**Bit-identity.**  The interpreter reproduces the reference kernel's
trajectory exactly, not approximately: every random draw happens on
the same :class:`~repro.sim.random_streams.RandomStreams` stream in
the same order, and every floating-point accumulation (service times,
stall attribution, occupancy/concurrency integrals) performs the same
operations in the same order.  Event ordering at equal timestamps
follows the reference heap's sequence-number discipline: a drive's
synchronous continuation (head update, next pick, idle transition)
precedes same-time event deliveries, and a CPU wake folds only the
arrivals that the reference would have delivered before the resume.
``tests/bench/test_kernel_equivalence.py`` enforces the identity
against the reference kernel across the full configuration matrix.

**Faults.**  Fault plans run natively (:class:`_FaultyFlatTrial`): the
flat drive chain mirrors ``DiskDrive._service`` attempt by attempt
(outage waits, slowdown factors, transient failures, retry backoff)
against the real :class:`~repro.faults.injector.FaultInjector`.  A
drive's whole service is computed when it starts, so its fault times
and mid-service head moves are known early; the CPU side's
degraded-drive queries count only what happened at or before their
own time.

**Fallback.**  Configurations outside the flattened model's envelope
(:func:`unsupported_reason`: demand timeouts, transients on several
drives, write disks, degenerate disk timing) never enter the
interpreter; their trials run on the reference kernel.  A trial
that diverges at runtime (:class:`BatchDivergence` — an internal
inconsistency the interpreter detects) is re-run on the reference
kernel, and once the native success rate of a batch drops below
:data:`EFFICIENCY_FLOOR` the remaining trials skip the interpreter
entirely.  A trial that meets a terminal fault (an exhausted retry
budget or a permanent outage) or exhausts its event budget (counted
here as CPU-loop iterations plus drive services) is re-run on the
reference kernel too, which raises the canonical error; neither counts
against the floor.
:func:`fallback_counts` reports every fallback by reason.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left, bisect_right
from collections import Counter
from typing import Optional, Sequence

from repro.core.cache import BlockCache, CacheAccountingError
from repro.core.metrics import ConcurrencyTracker, MergeMetrics
from repro.core.parameters import SimulationConfig
from repro.core.strategies import build_planner
from repro.disks.drive import DriveStats, QueueDiscipline
from repro.disks.layout import RunLayout
from repro.faults.injector import FaultInjector
from repro.sim.random_streams import RandomStreams

__all__ = [
    "BatchDivergence", "fallback_counts", "run_trial_batch",
    "unsupported_reason",
]

#: Process-wide tally of trials :func:`run_trial_batch` did not run
#: natively, keyed by reason (see :func:`fallback_counts`).
_fallbacks: Counter = Counter()
_fallbacks_lock = threading.Lock()

#: Minimum fraction of a batch's attempted trials the interpreter must
#: run natively; below it the rest of the batch skips the interpreter.
EFFICIENCY_FLOOR = 0.5


class BatchDivergence(RuntimeError):
    """The flattened interpreter detected an internal inconsistency.

    Raised (and caught by :func:`run_trial_batch`) when the flat state
    walk violates one of its own invariants — the affected trial falls
    back to the reference kernel, which is always correct.
    """

    __slots__ = ()


class _TerminalFault(Exception):
    """The trial fails on an injected fault (retries exhausted, or a
    permanent outage); the reference kernel owns the error it raises."""

    __slots__ = ()


class _BudgetExhausted(Exception):
    """The trial's CPU-loop iterations plus drive services passed its
    event budget; the reference kernel owns the
    :class:`~repro.sim.kernel.TrialBudgetExceeded` it raises."""

    __slots__ = ()


def unsupported_reason(config: SimulationConfig) -> Optional[str]:
    """Why ``config`` cannot run on the flattened interpreter (or None).

    The envelope covers the paper's model — any strategy, victim
    selector, cache policy, queue discipline, synchronization mode and
    CPU cost — plus fault plans whose effects the eager per-drive
    service chain can order exactly: slowdowns, outages, and transient
    errors on at most one drive.  Outside it are demand-read timeouts
    (escalation needs CPU-side timers), transients on several drives
    (the injector's one stream is then drawn in global time order
    across drives), the write subsystem, and degenerate disk timing
    where continuous rotational draws no longer separate event
    timestamps.  Traced runs never reach this check:
    :func:`repro.api.run_trials` sends them to the event kernel.
    """
    plan = config.fault_plan
    if plan is not None:
        if plan.demand_timeout_ms is not None:
            return "demand-read timeouts require the event kernel"
        if len({fault.drive for fault in plan.transients}) > 1:
            return "transients on several drives (one shared fault stream)"
    if config.write_disks > 0:
        return "the write subsystem requires the event kernel"
    if config.disk.avg_rotational_latency_ms <= 0:
        return "degenerate rotational latency (equal-time event ties)"
    if config.stream_across_requests:
        # Zero-positioning sequential chains phase-lock the drives onto
        # one arrival grid; the resulting systematic equal-time ties
        # resolve by heap push order, which the flat model cannot
        # reproduce without the event queue it exists to replace.
        return "streamed sequential requests (systematic equal-time ties)"
    return None


class _Clock:
    """Mutable stand-in for ``Simulator.now`` shared by cache/tracker."""

    __slots__ = ("now",)

    def __init__(self) -> None:
        self.now = 0.0


class _Request:
    """Flat mirror of :class:`~repro.disks.request.BlockFetchRequest`."""

    __slots__ = (
        "run", "first_block", "count", "demand", "issue_time",
        "last_address", "finish", "arrival0",
    )

    def __init__(
        self, run: int, first_block: int, count: int, demand: bool,
        issue_time: float,
    ) -> None:
        self.run = run
        self.first_block = first_block
        self.count = count
        self.demand = demand
        self.issue_time = issue_time
        self.last_address = 0
        self.finish: Optional[float] = None
        self.arrival0 = 0.0


class _Drive:
    """Flat mirror of one :class:`~repro.disks.drive.DiskDrive`.

    ``arrivals`` is the drive's (strictly increasing) block-arrival
    schedule — ``(time, run, block_index)`` tuples appended as requests
    are serviced and consumed through ``cursor`` as the interpreter
    folds them into the cache in global time order.
    """

    __slots__ = (
        "drive_id", "rng", "stats", "head_cylinder",
        "next_sequential_address", "pending", "free_time", "current",
        "arrivals", "cursor",
    )

    def __init__(self, drive_id: int, rng) -> None:
        self.drive_id = drive_id
        self.rng = rng
        self.stats = DriveStats()
        self.head_cylinder = 0
        self.next_sequential_address: Optional[int] = None
        self.pending: list[_Request] = []
        self.free_time: Optional[float] = None
        self.current: Optional[_Request] = None
        self.arrivals: list[tuple[float, int, int]] = []
        self.cursor = 0


class _Shared:
    """Per-config immutables computed once for a whole batch."""

    __slots__ = (
        "config", "layout", "describe", "run_disk", "run_base",
        "blocks_per_cylinder", "seek_per_cylinder", "rotation_period",
        "transfer_ms", "sstf", "stream_across", "initial_blocks",
        "total_blocks", "cpu_ms", "synchronized", "event_budget",
    )

    def __init__(self, config: SimulationConfig) -> None:
        self.config = config
        self.layout = RunLayout(
            num_runs=config.num_runs,
            num_disks=config.num_disks,
            blocks_per_run=config.blocks_per_run,
            geometry=config.geometry,
        )
        self.describe = config.describe()
        self.run_disk = [
            self.layout.disk_of_run(run) for run in range(config.num_runs)
        ]
        self.run_base = [
            self.layout.slot_of_run(run) * config.blocks_per_run
            for run in range(config.num_runs)
        ]
        self.blocks_per_cylinder = config.geometry.blocks_per_cylinder
        self.seek_per_cylinder = config.disk.seek_ms_per_cylinder
        self.rotation_period = config.disk.rotation_period_ms
        self.transfer_ms = config.disk.transfer_ms_per_block
        self.sstf = config.queue_discipline is QueueDiscipline.SSTF
        self.stream_across = config.stream_across_requests
        self.initial_blocks = config.initial_blocks_per_run
        self.total_blocks = config.total_blocks
        self.cpu_ms = config.cpu_ms_per_block
        self.synchronized = config.synchronized
        self.event_budget = config.event_budget


class _FlatTrial:
    """One seeded fault-free trial walked by the flattened interpreter.

    Duck-types the planner's ``SystemView`` protocol (``layout``,
    ``cache``, ``head_cylinder``), so the *real* planner and
    victim-chooser run against flat state with identical random draws.
    ``drive_degraded`` is absent here — the protocol treats that as
    every drive healthy, the fault-free behaviour — and supplied by
    :class:`_FaultyFlatTrial`, which also sets ``_sick``: per drive,
    whether the fault plan names it.
    """

    __slots__ = (
        "shared", "seed", "clock", "cache", "tracker", "planner",
        "drives", "layout", "_sick", "_depletion_rng",
        "_blocks_depleted", "_blocks_fetched", "_fetch_requests",
        "_demand_situations", "_demand_hits_in_flight",
        "_fetch_decisions", "_full_prefetch_decisions",
        "_cpu_stall_ms", "_cpu_busy_ms", "_healthy_stall_ms",
        "_fault_stall_ms", "_degraded_skips",
    )

    def __init__(self, shared: _Shared, seed: int) -> None:
        config = shared.config
        self.shared = shared
        self.seed = seed
        self.clock = _Clock()
        self.layout = shared.layout
        streams = RandomStreams(seed)
        self.cache = BlockCache(
            self.clock,
            capacity=config.resolved_cache_capacity,
            runs=config.num_runs,
            blocks_per_run=config.blocks_per_run,
        )
        self.tracker = ConcurrencyTracker(self.clock, config.num_disks)
        self.planner = build_planner(
            config.strategy,
            depth=config.effective_depth,
            num_disks=config.num_disks,
            policy=config.cache_policy,
            selector=config.victim_selector,
            rng=streams.stream("victim-choice"),
            adaptive=config.adaptive_depth,
        )
        self._depletion_rng = streams.stream("depletion")
        self._sick: Optional[list[bool]] = None
        self.drives = [
            _Drive(disk, streams.stream(f"disk-{disk}"))
            for disk in range(config.num_disks)
        ]
        self._blocks_depleted = 0
        self._blocks_fetched = 0
        self._fetch_requests = 0
        self._demand_situations = 0
        self._demand_hits_in_flight = 0
        self._fetch_decisions = 0
        self._full_prefetch_decisions = 0
        self._cpu_stall_ms = 0.0
        self._cpu_busy_ms = 0.0
        self._healthy_stall_ms = 0.0
        self._fault_stall_ms = 0.0
        self._degraded_skips = 0

    # -- planner view protocol -----------------------------------------
    def head_cylinder(self, disk: int) -> int:
        return self.drives[disk].head_cylinder

    # The occupancy-integral updates below are BlockCache._account
    # inlined at every reference account point: the integral is float-
    # partition-sensitive, so each update must happen at the same
    # timestamp in the same global order as the reference kernel's.

    def _apply_arrival(self, drive: _Drive) -> None:
        when, run, index = drive.arrivals[drive.cursor]
        drive.cursor += 1
        cache = self.cache
        state = cache.runs[run]
        if index != state.next_deplete + state.cached or state.in_flight <= 0:
            raise BatchDivergence(
                f"run {run}: flat arrival {index} out of order"
            )
        self.clock.now = when
        cache._occupancy_weighted_ms += (cache.capacity - cache._free) * (
            when - cache._last_change_ms
        )
        cache._last_change_ms = when
        state.in_flight -= 1
        state.cached += 1

    # -- drive service (flat mirror of DiskDrive._service) -------------
    def _start_service(
        self, drive: _Drive, request: _Request, start: float
    ) -> None:
        shared = self.shared
        stats = drive.stats
        stats.queue_wait_ms += start - request.issue_time
        first_address = shared.run_base[request.run] + request.first_block
        last_address = first_address + request.count - 1
        request.last_address = last_address
        sequential = (
            shared.stream_across
            and drive.next_sequential_address is not None
            and first_address == drive.next_sequential_address
        )
        if sequential:
            positioning = 0.0
            stats.sequential_requests += 1
        else:
            distance = abs(
                first_address // shared.blocks_per_cylinder
                - drive.head_cylinder
            )
            seek_ms = distance * shared.seek_per_cylinder
            rotation_ms = drive.rng.uniform(0.0, shared.rotation_period)
            stats.seek_cylinders += distance
            # Reference order: seek_cost + rotation_cost (healthy
            # slowdown factor 1.0 preserves each term bit-exactly).
            positioning = seek_ms + rotation_ms
            stats.seek_ms += seek_ms
            stats.rotation_ms += rotation_ms
        when = start + positioning if positioning > 0 else start
        transfer = shared.transfer_ms
        arrivals = drive.arrivals
        run = request.run
        first_block = request.first_block
        first_index = len(arrivals)
        for offset in range(request.count):
            when = when + transfer
            arrivals.append((when, run, first_block + offset))
        request.arrival0 = arrivals[first_index][0]
        request.finish = when
        stats.transfer_ms += request.count * transfer
        stats.busy_ms += when - start
        stats.requests += 1
        stats.blocks += request.count
        if request.demand:
            stats.demand_requests += 1
        else:
            stats.prefetch_requests += 1
        drive.current = request
        drive.free_time = when

    def _pick_next(self, drive: _Drive) -> _Request:
        pending = drive.pending
        if not self.shared.sstf or len(pending) == 1:
            return pending.pop(0)
        demand_positions = [
            i for i, r in enumerate(pending) if r.demand
        ]
        if demand_positions:
            return pending.pop(demand_positions[0])
        seen_runs: set[int] = set()
        eligible: list[int] = []
        for index, request in enumerate(pending):
            if request.run not in seen_runs:
                seen_runs.add(request.run)
                eligible.append(index)
        shared = self.shared
        head = drive.head_cylinder
        best = min(
            eligible,
            key=lambda i: abs(
                (
                    shared.run_base[pending[i].run]
                    + pending[i].first_block
                )
                // shared.blocks_per_cylinder
                - head
            ),
        )
        return pending.pop(best)

    def _finish_request(self, drive: _Drive) -> None:
        """Process the drive's free point (reference: the synchronous
        continuation after the request's final transfer timeout)."""
        request = drive.current
        when = drive.free_time
        drive.head_cylinder = (
            request.last_address // self.shared.blocks_per_cylinder
        )
        drive.next_sequential_address = request.last_address + 1
        if drive.pending:
            self._start_service(drive, self._pick_next(drive), when)
        else:
            drive.current = None
            drive.free_time = None
            self.clock.now = when
            self.tracker.on_busy_change(drive.drive_id, False)

    # -- global event ordering -----------------------------------------
    def _step_free(self) -> None:
        """Process the globally earliest drive free point."""
        best = None
        best_time = float("inf")
        for drive in self.drives:
            when = drive.free_time
            if when is not None and when < best_time:
                best_time = when
                best = drive
        if best is None:
            raise BatchDivergence("flat merge deadlocked: no drive busy")
        self._finish_request(best)

    def _advance(self, limit: float, arrivals_at_limit: bool) -> None:
        """Process frees ``<= limit`` and fold arrivals up to ``limit``.

        Arrivals strictly before ``limit`` always fold;
        ``arrivals_at_limit`` additionally folds arrivals exactly at it
        (the synchronized-wake rule).  At equal timestamps a drive's
        free point precedes its arrival deliveries, mirroring the
        reference heap's sequence ordering.
        """
        drives = self.drives
        cache = self.cache
        runs = cache.runs
        clock = self.clock
        capacity = cache.capacity
        infinity = float("inf")
        while True:
            # One pass over the drives finds both the earliest free
            # point and the earliest unfolded arrival.
            free_drive = None
            free_time = infinity
            arrival_drive = None
            arrival_time = infinity
            for drive in drives:
                when = drive.free_time
                if when is not None and when < free_time:
                    free_time = when
                    free_drive = drive
                arrivals = drive.arrivals
                cursor = drive.cursor
                if cursor < len(arrivals):
                    when = arrivals[cursor][0]
                    if when < arrival_time:
                        arrival_time = when
                        arrival_drive = drive
            if (
                free_drive is not None
                and free_time <= limit
                and free_time <= arrival_time
            ):
                self._finish_request(free_drive)
                continue
            if arrival_drive is not None and (
                arrival_time < limit
                or (arrivals_at_limit and arrival_time == limit)
            ):
                drive = arrival_drive
                when, run, index = drive.arrivals[drive.cursor]
                drive.cursor += 1
                state = runs[run]
                if (
                    index != state.next_deplete + state.cached
                    or state.in_flight <= 0
                ):
                    raise BatchDivergence(
                        f"run {run}: flat arrival {index} out of order"
                    )
                clock.now = when
                cache._occupancy_weighted_ms += (capacity - cache._free) * (
                    when - cache._last_change_ms
                )
                cache._last_change_ms = when
                state.in_flight -= 1
                state.cached += 1
                continue
            return

    # -- CPU-side actions ----------------------------------------------
    def _issue(self, plan, now: float) -> list[_Request]:
        cache = self.cache
        runs = cache.runs
        capacity = cache.capacity
        drives = self.drives
        run_disk = self.shared.run_disk
        requests: list[_Request] = []
        for group in plan.groups:
            run = group.run
            state = runs[run]
            count = group.count
            free = cache._free
            if count > free or state.next_fetch + count > state.total_blocks:
                # Genuine over-subscription: raise the reference error.
                cache.reserve(run, count)
            first_block = state.next_fetch
            cache._occupancy_weighted_ms += (capacity - free) * (
                now - cache._last_change_ms
            )
            cache._last_change_ms = now
            free -= count
            cache._free = free
            state.in_flight += count
            state.next_fetch += count
            if free < cache.min_free:
                cache.min_free = free
            occupied = capacity - free
            if occupied > cache.peak_occupancy:
                cache.peak_occupancy = occupied
            request = _Request(run, first_block, count, group.demand, now)
            drive = drives[run_disk[run]]
            pending = drive.pending
            pending.append(request)
            if len(pending) > drive.stats.max_queue_length:
                drive.stats.max_queue_length = len(pending)
            if drive.free_time is None:
                self.clock.now = now
                self.tracker.on_busy_change(drive.drive_id, True)
                self._start_service(drive, self._pick_next(drive), now)
            requests.append(request)
            self._fetch_requests += 1
            self._blocks_fetched += count
        return requests

    def _wait_demand(self, request: _Request) -> float:
        """Unsynchronized demand wait: the request's first block."""
        while request.finish is None:
            self._step_free()
        when = request.arrival0
        self._advance(when, arrivals_at_limit=False)
        drive = self.drives[self.shared.run_disk[request.run]]
        entry = drive.arrivals[drive.cursor]
        if entry != (when, request.run, request.first_block):
            raise BatchDivergence("demand arrival fold out of order")
        self._apply_arrival(drive)
        return when

    def _wait_in_flight(self, run: int, index: int) -> float:
        """Demand wait for a block already on its way from disk."""
        drive = self.drives[self.shared.run_disk[run]]
        scan = drive.cursor
        when: Optional[float] = None
        while when is None:
            arrivals = drive.arrivals
            for j in range(scan, len(arrivals)):
                if arrivals[j][1] == run and arrivals[j][2] == index:
                    when = arrivals[j][0]
                    break
            else:
                scan = len(arrivals)
                self._step_free()
        self._advance(when, arrivals_at_limit=False)
        entry = drive.arrivals[drive.cursor]
        if entry != (when, run, index):
            raise BatchDivergence("in-flight arrival fold out of order")
        self._apply_arrival(drive)
        return when

    def _wait_all(self, requests: list[_Request]) -> float:
        """Synchronized demand wait: every block of every group."""
        for request in requests:
            while request.finish is None:
                self._step_free()
        when = max(request.finish for request in requests)
        self._advance(when, arrivals_at_limit=True)
        return when

    # -- the merge loop -------------------------------------------------
    def run(self) -> MergeMetrics:
        shared = self.shared
        config = shared.config
        cache = self.cache
        states = cache.runs
        clock = self.clock
        cpu_ms = shared.cpu_ms
        for run in range(config.num_runs):
            cache.preload(run, shared.initial_blocks)

        unfinished = list(range(config.num_runs))
        depletion_rng = self._depletion_rng
        randrange = depletion_rng.randrange
        planner = self.planner
        capacity = cache.capacity
        sick = self._sick
        run_disk = shared.run_disk
        budget = shared.event_budget
        now = 0.0
        while unfinished:
            run = unfinished[randrange(len(unfinished))]
            state = states[run]
            if state.cached < 1:
                raise BatchDivergence(f"run {run}: flat deplete underflow")
            clock.now = now
            cache._occupancy_weighted_ms += (capacity - cache._free) * (
                now - cache._last_change_ms
            )
            cache._last_change_ms = now
            state.cached -= 1
            state.next_deplete += 1
            cache._free += 1
            self._blocks_depleted += 1
            if self._blocks_depleted + self._fetch_requests > budget:
                raise _BudgetExhausted
            if cpu_ms > 0:
                self._cpu_busy_ms += cpu_ms
                wake = now + cpu_ms
                self._advance(wake, arrivals_at_limit=False)
                now = wake
            if state.next_deplete == state.total_blocks:
                unfinished.remove(run)
                continue
            if state.cached > 0:
                continue

            self._demand_situations += 1
            stall_start = now
            # MergeTrial._attribute_stall: a stall is fault-induced when
            # the demand drive is degraded at either boundary.
            disk = run_disk[run]
            faulty = sick is not None and sick[disk]
            degraded_at_start = faulty and self._degraded(disk, now)
            if state.in_flight > 0:
                self._demand_hits_in_flight += 1
                now = self._wait_in_flight(run, state.next_deplete)
            else:
                clock.now = now
                plan = planner.plan(self, run)
                if plan.counts_as_decision:
                    self._fetch_decisions += 1
                    if plan.full_prefetch:
                        self._full_prefetch_decisions += 1
                requests = self._issue(plan, now)
                if shared.synchronized:
                    now = self._wait_all(requests)
                else:
                    now = self._wait_demand(requests[0])
            stalled = now - stall_start
            self._cpu_stall_ms += stalled
            if stalled > 0:
                if faulty and (degraded_at_start or self._degraded(disk, now)):
                    self._fault_stall_ms += stalled
                else:
                    self._healthy_stall_ms += stalled

        if self._blocks_depleted != shared.total_blocks:
            raise BatchDivergence(
                f"flat merge ended early: {self._blocks_depleted} of "
                f"{shared.total_blocks} blocks"
            )
        clock.now = now
        cache.check()
        return MergeMetrics(
            config_description=shared.describe,
            seed=self.seed,
            total_time_ms=now,
            blocks_depleted=self._blocks_depleted,
            blocks_fetched=self._blocks_fetched,
            fetch_requests=self._fetch_requests,
            demand_situations=self._demand_situations,
            demand_hits_in_flight=self._demand_hits_in_flight,
            fetch_decisions=self._fetch_decisions,
            full_prefetch_decisions=self._full_prefetch_decisions,
            cpu_stall_ms=self._cpu_stall_ms,
            cpu_busy_ms=self._cpu_busy_ms,
            drive_stats=[drive.stats for drive in self.drives],
            average_concurrency=self.tracker.average_concurrency(),
            peak_concurrency=self.tracker.peak,
            disk_busy_fraction=self.tracker.busy_fraction(),
            cache_min_free=cache.min_free,
            cache_mean_occupancy=cache.mean_occupancy(),
            cache_peak_occupancy=cache.peak_occupancy,
            blocks_written=0,
            write_stall_ms=0.0,
            write_stalls=0,
            fault_stall_ms=self._fault_stall_ms,
            healthy_stall_ms=self._healthy_stall_ms,
            demand_timeouts=0,
            degraded_skips=self._degraded_skips,
        )


class _FaultyFlatTrial(_FlatTrial):
    """A flat trial under a fault plan (see :func:`unsupported_reason`).

    The drive chain mirrors ``DiskDrive._service`` attempt by attempt
    against the real :class:`~repro.faults.injector.FaultInjector`,
    which draws from the trial's own ``"faults"`` stream.  A service is
    computed whole when it starts, ahead of the CPU's clock, so the
    trial keeps its own per-drive fault times (``_fault_times``) and
    head moves (``_moved_heads``): CPU-side queries at time ``t`` see
    only faults and head moves at or before ``t``.  Drives the plan
    never names take the fault-free paths.  Terminal faults raise
    :class:`_TerminalFault` for the caller to re-run the seed on the
    event kernel.
    """

    __slots__ = ("injector", "_fault_times", "_moved_heads")

    def __init__(self, shared: _Shared, seed: int) -> None:
        super().__init__(shared, seed)
        config = shared.config
        plan = config.fault_plan
        self.injector = FaultInjector(
            plan,
            num_disks=config.num_disks,
            rng=RandomStreams(seed).stream("faults"),
        )
        named = {
            fault.drive
            for fault in (*plan.transients, *plan.slowdowns, *plan.outages)
        }
        self._sick = [disk in named for disk in range(config.num_disks)]
        self._fault_times: list[list[float]] = [
            [] for _ in range(config.num_disks)
        ]
        # Per drive: (time, cylinder) of the current service's first
        # failed attempt, when the reference moves the head mid-service.
        self._moved_heads: list[Optional[tuple[float, int]]] = [
            None
        ] * config.num_disks

    # -- planner view protocol -----------------------------------------
    def head_cylinder(self, disk: int) -> int:
        moved = self._moved_heads[disk]
        if moved is not None and moved[0] <= self.clock.now:
            return moved[1]
        return self.drives[disk].head_cylinder

    def drive_degraded(self, disk: int) -> bool:
        if not self._sick[disk]:
            return False
        degraded = self._degraded(disk, self.clock.now)
        if degraded:
            self._degraded_skips += 1
        return degraded

    def _degraded(self, disk: int, now: float) -> bool:
        """``FaultInjector.drive_degraded`` over faults recorded by ``now``."""
        injector = self.injector
        if injector.outage_until(disk, now) is not None:
            return True
        if injector.slowdown_factor(disk, now) > 1.0:
            return True
        times = self._fault_times[disk]
        if not times:
            return False
        plan = injector.plan
        recent = bisect_right(times, now) - bisect_left(
            times, now - plan.flap_window_ms
        )
        return recent >= plan.flap_threshold

    # -- drive service (flat mirror of DiskDrive._service) -------------
    def _start_service(
        self, drive: _Drive, request: _Request, start: float
    ) -> None:
        disk = drive.drive_id
        if not self._sick[disk]:
            super()._start_service(drive, request, start)
            return
        shared = self.shared
        injector = self.injector
        stats = drive.stats
        stats.queue_wait_ms += start - request.issue_time
        first_address = shared.run_base[request.run] + request.first_block
        last_address = first_address + request.count - 1
        request.last_address = last_address
        blocks_per_cylinder = shared.blocks_per_cylinder
        target_cylinder = first_address // blocks_per_cylinder
        # Streamed sequential requests are outside the envelope, so
        # every attempt pays seek and rotation.
        head = drive.head_cylinder
        self._moved_heads[disk] = None
        healthy_transfer = shared.transfer_ms
        count = request.count
        now = start
        attempt = 0
        while True:
            attempt += 1
            until = injector.outage_until(disk, now)
            while until is not None:
                if until == math.inf:
                    raise _TerminalFault(f"drive {disk} permanently offline")
                wait = until - now
                stats.outage_wait_ms += wait
                stats.fault_ms += wait
                now = now + wait
                until = injector.outage_until(disk, now)

            distance = abs(target_cylinder - head)
            seek_ms = distance * shared.seek_per_cylinder
            rotation_ms = drive.rng.uniform(0.0, shared.rotation_period)
            stats.seek_cylinders += distance
            factor = injector.slowdown_factor(disk, now)
            seek_cost = seek_ms * factor
            rotation_cost = rotation_ms * factor
            positioning = seek_cost + rotation_cost
            if positioning > 0:
                now = now + positioning
            stats.seek_ms += seek_cost
            stats.rotation_ms += rotation_cost

            transfer = healthy_transfer * factor
            if not injector.attempt_fails(disk, now):
                break

            # A failed attempt transfers in full with no arrivals; the
            # head ends on the last address and the drive backs off.
            now = now + count * transfer
            stats.transfer_ms += count * transfer
            stats.faults += 1
            stats.fault_ms += positioning + count * transfer
            head = last_address // blocks_per_cylinder
            if self._moved_heads[disk] is None:
                self._moved_heads[disk] = (now, head)
            self._fault_times[disk].append(now)
            retry = injector.retry
            if attempt >= retry.max_attempts:
                raise _TerminalFault(f"drive {disk} exhausted its retries")
            delay = retry.delay_ms(attempt, injector.rng)
            stats.retries += 1
            stats.retry_backoff_ms += delay
            stats.fault_ms += delay
            if delay > 0:
                now = now + delay

        arrivals = drive.arrivals
        run = request.run
        first_block = request.first_block
        first_index = len(arrivals)
        for offset in range(count):
            now = now + transfer
            arrivals.append((now, run, first_block + offset))
        request.arrival0 = arrivals[first_index][0]
        request.finish = now
        stats.transfer_ms += count * transfer
        stats.fault_ms += (factor - 1.0) * (
            seek_ms + rotation_ms + count * healthy_transfer
        )
        if attempt > 1:
            key = str(attempt)
            stats.retry_histogram[key] = stats.retry_histogram.get(key, 0) + 1
        stats.busy_ms += now - start
        stats.requests += 1
        stats.blocks += count
        if request.demand:
            stats.demand_requests += 1
        else:
            stats.prefetch_requests += 1
        drive.current = request
        drive.free_time = now


def _fallback_trial(config: SimulationConfig, seed: int) -> MergeMetrics:
    """Run one seed on the reference kernel (the always-correct path)."""
    from repro.core.merge_sim import MergeTrial

    # config.kernel == "batch" resolves to the reference Simulator
    # through the registry factory.
    return MergeTrial(config, seed=seed).run()


def fallback_counts() -> dict[str, int]:
    """Trials :func:`run_trial_batch` ran off the flattened path, by reason.

    A process-wide running tally since import.  The reasons are an
    :func:`unsupported_reason` text (the whole batch), ``"divergence"``
    (a :class:`BatchDivergence` re-run), ``"efficiency-floor"`` (trials
    after the batch's native rate fell below :data:`EFFICIENCY_FLOOR`),
    ``"terminal-fault"`` (a seed re-run to raise its fault error) and
    ``"event-budget"`` (a seed re-run to raise its
    :class:`~repro.sim.kernel.TrialBudgetExceeded`).
    """
    with _fallbacks_lock:
        return dict(_fallbacks)


def _count_fallback(reason: str, trials: int = 1) -> None:
    with _fallbacks_lock:
        _fallbacks[reason] += trials


def run_trial_batch(
    config: SimulationConfig,
    seeds: Sequence[int],
) -> list[MergeMetrics]:
    """Execute ``seeds`` trials of ``config``; the batch kernel's entry.

    Registered as the ``batch`` kernel's batch runner (see
    :mod:`repro.sim.kernel`); callers go through
    :func:`repro.api.run_trials`, never here directly.  Trials the
    flattened interpreter cannot execute natively — an unsupported
    config, a runtime :class:`BatchDivergence`, a terminal fault, or an
    exhausted event budget — fall back to the reference kernel; once
    the batch's native success rate drops below :data:`EFFICIENCY_FLOOR`
    the remaining trials skip the interpreter.  Every fallback is
    tallied in :func:`fallback_counts`.
    """
    reason = unsupported_reason(config)
    if reason is not None:
        _count_fallback(reason, len(seeds))
        return [_fallback_trial(config, seed) for seed in seeds]

    shared = _Shared(config)
    trial_class = _FlatTrial if config.fault_plan is None else _FaultyFlatTrial
    results: list[MergeMetrics] = []
    attempted = 0
    diverged = 0
    flat_enabled = True
    for seed in seeds:
        if not flat_enabled:
            reason = "efficiency-floor"
        else:
            try:
                metrics = trial_class(shared, seed).run()
            except _TerminalFault:
                reason = "terminal-fault"
            except _BudgetExhausted:
                reason = "event-budget"
            except (BatchDivergence, CacheAccountingError):
                reason = "divergence"
                attempted += 1
                diverged += 1
                if (attempted - diverged) / attempted < EFFICIENCY_FLOOR:
                    flat_enabled = False
            else:
                attempted += 1
                results.append(metrics)
                continue
        _count_fallback(reason)
        results.append(_fallback_trial(config, seed))
    return results
