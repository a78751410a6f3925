"""The batched trial-execution tier: a flattened merge-trial interpreter.

The ``batch`` kernel executes a whole batch of independent seeded
trials of one configuration through :func:`run_trial_batch` instead of
spinning up the event kernel once per trial.  The flattened interpreter
replaces the reference kernel's per-event machinery — heap pops,
generator resumes, event objects, callback lists — with a direct walk
of the merge trial's structure: the CPU's merge loop runs as plain
Python, and each drive's service chain is computed arithmetically at
the reference kernel's decision points.  Time advances in two phases
per CPU step: every drive runs its own free points up to the step's
limit, then each drive's block arrivals are folded into the cache in
bulk — a bisection into the drive's float arrival schedule, the
per-run counters moved a request slice at a time, and the occupancy
integral taken in one pass over the merged fold times.
Batch-wide setup (run layout, addresses, the config description) is
computed once and shared by every trial.  It is the default kernel
(``SimulationConfig.kernel``).

**Bit-identity.**  The interpreter reproduces the reference kernel's
trajectory exactly, not approximately: every random draw happens on
the same :class:`~repro.sim.random_streams.RandomStreams` stream in
the same order, and every floating-point accumulation (service times,
stall attribution, occupancy/concurrency integrals) performs the same
operations in the same order.  Between two CPU actions only two
things cross drives: idle transitions, which reach the concurrency
tracker sorted by ``(time, drive)`` — the reference heap's order — and
the occupancy integral, whose weight (the reserved space) is constant
because nothing reserves or depletes inside one advance.  Everything
else is per drive: disk streams are per drive, and
:func:`unsupported_reason` keeps the fault stream's draws on one.  A
drive's free point precedes same-time arrivals, and a CPU wake folds
only the arrivals the reference would have delivered before the
resume.  ``tests/bench/test_kernel_equivalence.py`` enforces the
identity against the reference kernel across the full configuration
matrix.

Three seeded draws skip ``random.Random``'s Python-level wrappers, each
the same draw as the call it replaces.  The depletion draw is
``_randbelow_with_getrandbits`` inlined into the run loop (the method
behind ``randrange(n)`` for ``n > 0``): a ``getrandbits(bits)``
rejection loop, ``bits`` recomputed only when a run finishes.  The
rotation draw is ``period * random()``, which is ``uniform(0.0,
period)``'s ``0.0 + (period - 0.0) * random()`` exactly for a positive
period.  The planner's RANDOM victim draw calls ``_randbelow(n)`` for
``randrange(n)``.  ``tests/sim/test_batch_draws.py`` pins all three to
the running interpreter's ``random``.

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
drives, write disks, degenerate disk timing, streamed sequential
requests) never enter the interpreter; their trials run on the
reference kernel.  A trial that diverges at runtime
(:class:`BatchDivergence` — an internal inconsistency the interpreter
detects) is re-run on the reference kernel.  A trial that meets a
terminal fault (an exhausted retry budget or a permanent outage) or
exhausts its event budget (counted here as CPU-loop iterations plus
drive services) is re-run on the reference kernel too, which raises
the canonical error.  Every re-run trial's metrics name the reason in
:attr:`~repro.core.metrics.MergeMetrics.fallback`.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import deque
from typing import Optional, Sequence

from repro.core.cache import BlockCache, CacheAccountingError
from repro.core.metrics import ConcurrencyTracker, MergeMetrics
from repro.core.parameters import SimulationConfig
from repro.core.strategies import build_planner
from repro.disks.drive import DriveStats, QueueDiscipline
from repro.disks.layout import RunLayout
from repro.faults.injector import FaultInjector
from repro.sim.random_streams import RandomStreams

__all__ = ["BatchDivergence", "run_trial_batch", "unsupported_reason"]


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
    """Flat mirror of :class:`~repro.disks.request.BlockFetchRequest`.

    Once serviced, the request's block arrivals are
    ``times[start:end]`` of its drive's schedule.
    """

    __slots__ = (
        "run", "first_block", "count", "demand", "issue_time",
        "last_address", "finish", "start", "end",
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
        self.start = 0
        self.end = 0


class _Drive:
    """Flat mirror of one :class:`~repro.disks.drive.DiskDrive`.

    ``times`` is the drive's block-arrival schedule, strictly
    increasing floats appended as requests are serviced.  ``served``
    holds, oldest first, the serviced requests whose slices of
    ``times`` are not wholly folded yet; ``cursor`` indexes the first
    unfolded arrival.  The interpreter folds ``times[cursor:hi]`` in
    bulk and releases each request once its slice is folded.
    """

    __slots__ = (
        "drive_id", "rng", "stats", "head_cylinder", "pending",
        "free_time", "current", "times", "served", "cursor",
    )

    def __init__(self, drive_id: int, rng) -> None:
        self.drive_id = drive_id
        self.rng = rng
        self.stats = DriveStats()
        self.head_cylinder = 0
        self.pending: list[_Request] = []
        self.free_time: Optional[float] = None
        self.current: Optional[_Request] = None
        self.times: list[float] = []
        self.served: deque[_Request] = deque()
        self.cursor = 0


def _schedule(
    drive: _Drive, request: _Request, when: float, transfer: float
) -> float:
    """Put ``request`` in service on ``drive``, its first block's
    transfer starting at ``when``: append its arrivals to the drive's
    schedule and return its finish time."""
    times = drive.times
    request.start = len(times)
    for _ in range(request.count):
        when = when + transfer
        times.append(when)
    request.end = len(times)
    request.finish = when
    drive.served.append(request)
    drive.current = request
    drive.free_time = when
    return when


class _Shared:
    """Per-config immutables computed once for a whole batch."""

    __slots__ = (
        "config", "layout", "describe", "run_disk", "run_base",
        "blocks_per_cylinder", "seek_per_cylinder", "rotation_period",
        "transfer_ms", "sstf", "initial_blocks",
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
        "_blocks_fetched", "_fetch_requests", "_degraded_skips",
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
        self._blocks_fetched = 0
        self._fetch_requests = 0
        self._degraded_skips = 0

    # -- planner view protocol -----------------------------------------
    def head_cylinder(self, disk: int) -> int:
        return self.drives[disk].head_cylinder

    # -- drive service (flat mirror of DiskDrive._service) -------------
    def _start_service(
        self, drive: _Drive, request: _Request, start: float
    ) -> None:
        shared = self.shared
        stats = drive.stats
        stats.queue_wait_ms += start - request.issue_time
        first_address = shared.run_base[request.run] + request.first_block
        request.last_address = first_address + request.count - 1
        # Streamed sequential requests are outside the envelope, so
        # every service pays seek and rotation.
        distance = abs(
            first_address // shared.blocks_per_cylinder - drive.head_cylinder
        )
        seek_ms = distance * shared.seek_per_cylinder
        rotation_ms = shared.rotation_period * drive.rng.random()
        stats.seek_cylinders += distance
        # Reference order: seek_cost + rotation_cost (healthy slowdown
        # factor 1.0 preserves each term bit-exactly).
        positioning = seek_ms + rotation_ms
        stats.seek_ms += seek_ms
        stats.rotation_ms += rotation_ms
        when = start + positioning if positioning > 0 else start
        transfer = shared.transfer_ms
        when = _schedule(drive, request, when, transfer)
        stats.transfer_ms += request.count * transfer
        stats.busy_ms += when - start
        stats.requests += 1
        stats.blocks += request.count
        if request.demand:
            stats.demand_requests += 1
        else:
            stats.prefetch_requests += 1

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

    def _finish_request(self, drive: _Drive) -> bool:
        """Process the drive's free point (reference: the synchronous
        continuation after the request's final transfer timeout).

        Returns True when the drive goes idle; the caller reports that
        to the tracker.
        """
        request = drive.current
        drive.head_cylinder = (
            request.last_address // self.shared.blocks_per_cylinder
        )
        if drive.pending:
            self._start_service(
                drive, self._pick_next(drive), drive.free_time
            )
            return False
        drive.current = None
        drive.free_time = None
        return True

    # The occupancy-integral updates below are BlockCache._account
    # inlined at every reference account point: the integral is float-
    # partition-sensitive, so each update must happen at the same
    # timestamp in the same global order as the reference kernel's.
    # An update over a zero-length interval adds exactly +0.0 and is
    # skipped.

    # -- advancing time ------------------------------------------------
    def _advance(self, limit: float, arrivals_at_limit: bool) -> None:
        """Process frees ``<= limit`` and fold arrivals up to ``limit``.

        Arrivals strictly before ``limit`` always fold;
        ``arrivals_at_limit`` additionally folds arrivals exactly at it
        (the synchronized-wake rule).  Each drive first runs its own
        free points, so its schedule is complete up to ``limit`` before
        any of it folds.
        """
        drives = self.drives
        idle = []
        for drive in drives:
            when = drive.free_time
            while when is not None and when <= limit:
                if self._finish_request(drive):
                    idle.append((when, drive.drive_id))
                when = drive.free_time
        if idle:
            idle.sort()
            clock = self.clock
            on_busy_change = self.tracker.on_busy_change
            for when, disk in idle:
                clock.now = when
                on_busy_change(disk, False)

        cut = bisect_right if arrivals_at_limit else bisect_left
        stamps = []
        for drive in drives:
            times = drive.times
            cursor = drive.cursor
            end = cut(times, limit, cursor)
            if end > cursor:
                self._fold(drive, end)
                stamps += times[cursor:end]
        if stamps:
            stamps.sort()
            # Reserved space is constant inside one advance, so the
            # per-arrival updates reduce to one pass over the merged
            # fold times: the same multiplies and adds, in time order.
            cache = self.cache
            occupied = cache.capacity - cache._free
            weighted = cache._occupancy_weighted_ms
            last = cache._last_change_ms
            for when in stamps:
                weighted += occupied * (when - last)
                last = when
            cache._occupancy_weighted_ms = weighted
            cache._last_change_ms = self.clock.now = last

    def _fold(self, drive: _Drive, end: int) -> None:
        """Move ``times[cursor:end]`` into the cache's per-run counters,
        one request slice at a time."""
        runs = self.cache.runs
        served = drive.served
        cursor = drive.cursor
        while cursor < end:
            request = served[0]
            stop = request.end
            if end < stop:
                stop = end
            else:
                served.popleft()
            folded = stop - cursor
            state = runs[request.run]
            index = request.first_block + cursor - request.start
            if (
                index != state.next_deplete + state.cached
                or state.in_flight < folded
            ):
                raise BatchDivergence(
                    f"run {request.run}: flat arrival {index} out of order"
                )
            state.in_flight -= folded
            state.cached += folded
            cursor = stop
        drive.cursor = end

    def _fold_next(self, drive: _Drive, position: int, what: str) -> float:
        """Fold the drive's next arrival, which must be ``position``."""
        if drive.cursor != position:
            raise BatchDivergence(f"{what} arrival fold out of order")
        when = drive.times[position]
        cache = self.cache
        last = cache._last_change_ms
        if when != last:
            cache._occupancy_weighted_ms += (cache.capacity - cache._free) * (
                when - last
            )
            cache._last_change_ms = when
        self.clock.now = when
        self._fold(drive, position + 1)
        return when

    # -- CPU-side actions ----------------------------------------------
    def _issue(self, plan, now: float) -> list[_Request]:
        """Reserve and queue ``plan``'s groups at ``now``, the clock's
        time (the run loop sets it before planning).  Nothing else
        touches the cache here, so its occupancy integral, free count
        and peak are updated once per plan."""
        cache = self.cache
        runs = cache.runs
        capacity = cache.capacity
        free = cache._free
        last = cache._last_change_ms
        if now != last:
            cache._occupancy_weighted_ms += (capacity - free) * (now - last)
            cache._last_change_ms = now
        drives = self.drives
        run_disk = self.shared.run_disk
        requests: list[_Request] = []
        fetched = 0
        for group in plan.groups:
            run = group.run
            state = runs[run]
            count = group.count
            first_block = state.next_fetch
            if count > free or first_block + count > state.total_blocks:
                # Genuine over-subscription: raise the reference error.
                cache._free = free
                cache.reserve(run, count)
            free -= count
            state.in_flight += count
            state.next_fetch = first_block + count
            fetched += count
            request = _Request(run, first_block, count, group.demand, now)
            requests.append(request)
            drive = drives[run_disk[run]]
            pending = drive.pending
            pending.append(request)
            if len(pending) > drive.stats.max_queue_length:
                drive.stats.max_queue_length = len(pending)
            if drive.free_time is None:
                # An idle drive's queue held nothing else: the request
                # goes straight into service.
                pending.pop()
                self.tracker.on_busy_change(drive.drive_id, True)
                self._start_service(drive, request, now)
        cache._free = free
        occupied = capacity - free
        if occupied > cache.peak_occupancy:
            cache.peak_occupancy = occupied
        self._fetch_requests += len(requests)
        self._blocks_fetched += fetched
        return requests

    def _serve(self, request: _Request) -> _Drive:
        """Step the request's drive through its free points until the
        request is in service; other drives catch up in the
        :meth:`_advance` that follows every wait."""
        drive = self.drives[self.shared.run_disk[request.run]]
        while request.finish is None:
            if drive.free_time is None or self._finish_request(drive):
                raise BatchDivergence("flat merge deadlocked: drive idle")
        return drive

    def _wait_demand(self, request: _Request) -> float:
        """Unsynchronized demand wait: the request's first block."""
        drive = self._serve(request)
        self._advance(drive.times[request.start], arrivals_at_limit=False)
        return self._fold_next(drive, request.start, "demand")

    def _wait_in_flight(self, run: int, index: int) -> float:
        """Demand wait for a block already on its way from disk."""
        drive = self.drives[self.shared.run_disk[run]]
        for request in (*drive.served, *drive.pending):
            if request.run == run and (
                0 <= index - request.first_block < request.count
            ):
                break
        else:
            raise BatchDivergence(f"run {run}: block {index} not in flight")
        self._serve(request)
        position = request.start + index - request.first_block
        self._advance(drive.times[position], arrivals_at_limit=False)
        return self._fold_next(drive, position, "in-flight")

    def _wait_all(self, requests: list[_Request]) -> float:
        """Synchronized demand wait: every block of every group."""
        for request in requests:
            self._serve(request)
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
        # The depletion draw: randrange(left) inlined (see "Bit-identity").
        getrandbits = self._depletion_rng.getrandbits
        left = len(unfinished)
        bits = left.bit_length()
        planner = self.planner
        capacity = cache.capacity
        sick = self._sick
        run_disk = shared.run_disk
        synchronized = shared.synchronized
        budget = shared.event_budget
        depleted = 0
        demand_situations = 0
        demand_hits_in_flight = 0
        fetch_decisions = 0
        full_prefetch_decisions = 0
        cpu_stall_ms = 0.0
        cpu_busy_ms = 0.0
        healthy_stall_ms = 0.0
        fault_stall_ms = 0.0
        now = 0.0
        while left:
            pick = getrandbits(bits)
            while pick >= left:
                pick = getrandbits(bits)
            run = unfinished[pick]
            state = states[run]
            if state.cached < 1:
                raise BatchDivergence(f"run {run}: flat deplete underflow")
            clock.now = now
            last = cache._last_change_ms
            if now != last:
                cache._occupancy_weighted_ms += (capacity - cache._free) * (
                    now - last
                )
                cache._last_change_ms = now
            state.cached -= 1
            state.next_deplete += 1
            cache._free += 1
            depleted += 1
            if depleted + self._fetch_requests > budget:
                raise _BudgetExhausted
            if cpu_ms > 0:
                cpu_busy_ms += cpu_ms
                wake = now + cpu_ms
                self._advance(wake, arrivals_at_limit=False)
                now = wake
            if state.next_deplete == state.total_blocks:
                unfinished.remove(run)
                left -= 1
                bits = left.bit_length()
                continue
            if state.cached > 0:
                continue

            demand_situations += 1
            stall_start = now
            # MergeTrial._attribute_stall: a stall is fault-induced when
            # the demand drive is degraded at either boundary.
            disk = run_disk[run]
            faulty = sick is not None and sick[disk]
            degraded_at_start = faulty and self._degraded(disk, now)
            if state.in_flight > 0:
                demand_hits_in_flight += 1
                now = self._wait_in_flight(run, state.next_deplete)
            else:
                clock.now = now
                plan = planner.plan(self, run)
                if plan.counts_as_decision:
                    fetch_decisions += 1
                    if plan.full_prefetch:
                        full_prefetch_decisions += 1
                requests = self._issue(plan, now)
                if synchronized:
                    now = self._wait_all(requests)
                else:
                    now = self._wait_demand(requests[0])
            stalled = now - stall_start
            cpu_stall_ms += stalled
            if stalled > 0:
                if faulty and (degraded_at_start or self._degraded(disk, now)):
                    fault_stall_ms += stalled
                else:
                    healthy_stall_ms += stalled

        if depleted != shared.total_blocks:
            raise BatchDivergence(
                f"flat merge ended early: {depleted} of "
                f"{shared.total_blocks} blocks"
            )
        clock.now = now
        cache.check()
        return MergeMetrics(
            config_description=shared.describe,
            seed=self.seed,
            total_time_ms=now,
            blocks_depleted=depleted,
            blocks_fetched=self._blocks_fetched,
            fetch_requests=self._fetch_requests,
            demand_situations=demand_situations,
            demand_hits_in_flight=demand_hits_in_flight,
            fetch_decisions=fetch_decisions,
            full_prefetch_decisions=full_prefetch_decisions,
            cpu_stall_ms=cpu_stall_ms,
            cpu_busy_ms=cpu_busy_ms,
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
            fault_stall_ms=fault_stall_ms,
            healthy_stall_ms=healthy_stall_ms,
            demand_timeouts=0,
            degraded_skips=self._degraded_skips,
            capacity_envelope=cache.capacity_envelope(),
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
            rotation_ms = shared.rotation_period * drive.rng.random()
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

        now = _schedule(drive, request, now, transfer)
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


def _fallback_trial(
    config: SimulationConfig, seed: int, reason: str
) -> MergeMetrics:
    """Run one seed on the reference kernel (the always-correct path)."""
    from repro.core.merge_sim import MergeTrial

    # MergeTrial always runs on the reference Simulator, whatever
    # config.kernel names.
    metrics = MergeTrial(config, seed=seed).run()
    metrics.fallback = reason
    return metrics


def run_trial_batch(
    config: SimulationConfig,
    seeds: Sequence[int],
) -> list[MergeMetrics]:
    """Execute ``seeds`` trials of ``config``; the batch kernel's entry.

    :func:`repro.api.run_trials` calls it for every group of
    ``kernel="batch"`` trials; other callers go through ``run_trials``,
    never here directly.  Trials the flattened interpreter cannot
    execute natively — an unsupported config, a runtime
    :class:`BatchDivergence`, a terminal fault, or an exhausted event
    budget — fall back to the reference kernel seed by seed.  A
    fallback's metrics carry the reason in ``fallback``: the
    :func:`unsupported_reason` text or ``"divergence"``.  Terminal
    faults and exhausted budgets re-run only to raise their canonical
    error, which is their report.
    """
    reason = unsupported_reason(config)
    if reason is not None:
        return [_fallback_trial(config, seed, reason) for seed in seeds]

    shared = _Shared(config)
    trial_class = _FlatTrial if config.fault_plan is None else _FaultyFlatTrial
    results: list[MergeMetrics] = []
    for seed in seeds:
        try:
            metrics = trial_class(shared, seed).run()
        except _TerminalFault:
            reason = "terminal-fault"
        except _BudgetExhausted:
            reason = "event-budget"
        except (BatchDivergence, CacheAccountingError):
            reason = "divergence"
        else:
            results.append(metrics)
            continue
        results.append(_fallback_trial(config, seed, reason))
    return results
