"""One trial of the merge-phase simulation.

Wires together the DES kernel, the disk array, the block cache, and a
fetch planner, then runs the paper's merge loop:

1. Pick a run ``j`` uniformly at random among runs with unmerged
   blocks (the Kwan-Baer random block-depletion model) and deplete its
   leading resident block; spend ``cpu_ms_per_block`` of CPU time.
2. If that exhausted ``j``'s resident blocks (and ``j`` is not
   finished), a *demand situation* occurs: the merge cannot continue
   until the next block of ``j`` is in memory.  If that block is
   already in flight, wait for its arrival; otherwise ask the planner
   for a fetch plan, reserve cache space, queue the requests, and wait
   -- for the demand block only (unsynchronized) or for every block of
   the plan (synchronized).

An alternative *depletion source* can replace step 1's random choice
with a recorded sequence (e.g. from a real record-level merge); see
:mod:`repro.workloads.depletion`.
"""

from __future__ import annotations

from typing import Callable, Generator, Iterator, Optional

from repro import api
from repro.core.cache import BlockCache
from repro.core.metrics import ConcurrencyTracker, MergeMetrics
from repro.core.parameters import SimulationConfig
from repro.core.strategies import FetchPlan, build_planner
from repro.core.writes import WriteSubsystem
from repro.disks.drive import DiskDrive
from repro.disks.layout import RunLayout
from repro.disks.request import BlockFetchRequest, FetchKind
from repro.faults.injector import FaultInjector
from repro.obs.events import EventKind
from repro.sim.events import AllOf, AnyOf, Event
from repro.sim.kernel import create_kernel
from repro.sim.random_streams import RandomStreams

#: A depletion source yields the run to deplete next, given the list of
#: unfinished runs.  The default draws uniformly at random.
DepletionSource = Callable[[list[int]], int]


class MergeTrial:
    """A single seeded run of the merge-phase simulation."""

    def __init__(
        self,
        config: SimulationConfig,
        seed: int,
        depletion_source: Optional[Iterator[int]] = None,
    ) -> None:
        self.config = config
        self.seed = seed
        self.sim = create_kernel(config.kernel)
        # Tracing is ambient (RunContext), never part of the config:
        # the trace can't perturb results or sweep cache keys.  With no
        # session installed, ``self.trace`` stays None and every hook
        # below reduces to one guard check.
        session = api.current_trace()
        self.trace = (
            session.trial(seed, config.describe())
            if session is not None
            else None
        )
        self.streams = RandomStreams(seed)
        self.layout = RunLayout(
            num_runs=config.num_runs,
            num_disks=config.num_disks,
            blocks_per_run=config.blocks_per_run,
            geometry=config.geometry,
        )
        self.cache = BlockCache(
            self.sim,
            capacity=config.resolved_cache_capacity,
            runs=config.num_runs,
            blocks_per_run=config.blocks_per_run,
            trace=self.trace,
        )
        self.tracker = ConcurrencyTracker(
            self.sim, config.num_disks, trace=self.trace
        )
        # The injector draws from its own stream, so installing one
        # with an empty plan perturbs nothing (byte-identical runs).
        self.injector = (
            FaultInjector(
                config.fault_plan,
                num_disks=config.num_disks,
                rng=self.streams.stream("faults"),
            )
            if config.fault_plan is not None
            else None
        )
        self.drives = [
            DiskDrive(
                self.sim,
                drive_id=disk,
                geometry=config.geometry,
                parameters=config.disk,
                rng=self.streams.stream(f"disk-{disk}"),
                on_busy_change=self.tracker.on_busy_change,
                stream_across_requests=config.stream_across_requests,
                address_of=self._address_of,
                discipline=config.queue_discipline,
                injector=self.injector,
                trace=self.trace,
            )
            for disk in range(config.num_disks)
        ]
        self.planner = build_planner(
            config.strategy,
            depth=config.effective_depth,
            num_disks=config.num_disks,
            policy=config.cache_policy,
            selector=config.victim_selector,
            rng=self.streams.stream("victim-choice"),
            adaptive=config.adaptive_depth,
        )
        self._depletion_rng = self.streams.stream("depletion")
        self._depletion_source = depletion_source
        self.writes = (
            WriteSubsystem(
                self.sim,
                num_disks=config.write_disks,
                parameters=config.disk,
                geometry=config.geometry,
                streams=self.streams,
                buffer_blocks=config.write_buffer_blocks,
                trace=self.trace,
            )
            if config.write_disks > 0
            else None
        )
        # Counters.
        self._blocks_depleted = 0
        self._blocks_fetched = 0
        self._fetch_requests = 0
        self._demand_situations = 0
        self._demand_hits_in_flight = 0
        self._fetch_decisions = 0
        self._full_prefetch_decisions = 0
        self._cpu_stall_ms = 0.0
        self._cpu_busy_ms = 0.0
        self._write_stall_ms = 0.0
        self._fault_stall_ms = 0.0
        self._healthy_stall_ms = 0.0
        self._demand_timeouts = 0
        self._degraded_skips = 0

    # ------------------------------------------------------------------
    # Planner view protocol
    # ------------------------------------------------------------------
    def head_cylinder(self, disk: int) -> int:
        return self.drives[disk].head_cylinder

    def drive_degraded(self, disk: int) -> bool:
        """Degraded-mode signal the planner uses to skip sick drives.

        Without an injector every drive is permanently healthy, which
        is exactly the fault-free planner behaviour.
        """
        if self.injector is None:
            return False
        degraded = self.injector.drive_degraded(disk, self.sim.now)
        if degraded:
            self._degraded_skips += 1
            if self.trace is not None:
                self.trace.instant(
                    EventKind.DRIVE_DEGRADED, f"disk-{disk}", self.sim.now
                )
        return degraded

    def _address_of(self, request: BlockFetchRequest) -> int:
        return self.layout.block_address(request.run, request.first_block)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> MergeMetrics:
        """Execute the trial to completion and return its metrics."""
        self._preload()
        cpu = self.sim.process(self._merge_loop(), name="merge-cpu")
        self.sim.run(max_events=self.config.event_budget)
        if cpu.exception is not None:
            raise self._unwrap(cpu.exception)
        # A crashed drive process leaves the CPU suspended forever and
        # the event queue empty; surface the root cause, not a timeout.
        all_drives = list(self.drives)
        if self.writes is not None:
            all_drives.extend(self.writes.drives)
        for drive in all_drives:
            if drive.process.triggered and drive.process.exception is not None:
                raise self._unwrap(drive.process.exception)
        expected = self.config.total_blocks
        if self._blocks_depleted != expected:
            raise RuntimeError(
                f"merge ended early: {self._blocks_depleted} of {expected} blocks"
            )
        self.cache.check()
        return self._collect_metrics()

    @staticmethod
    def _unwrap(exc: BaseException) -> BaseException:
        """Surface injected-fault root causes instead of process wrappers.

        Fault errors reach the CPU (failed demand events) or the drive
        process (abandoned prefetches) wrapped in ``ProcessFailure``;
        callers should be able to catch ``FaultExhaustedError`` etc.
        directly.
        """
        from repro.faults.injector import FaultError
        from repro.sim.process import ProcessFailure

        if isinstance(exc, ProcessFailure) and isinstance(
            exc.__cause__, FaultError
        ):
            return exc.__cause__
        return exc

    def _preload(self) -> None:
        initial = self.config.initial_blocks_per_run
        for run in range(self.config.num_runs):
            self.cache.preload(run, initial)

    def _merge_loop(self) -> Generator:
        config = self.config
        cache = self.cache
        trace = self.trace
        unfinished = list(range(config.num_runs))
        pick = self._make_picker(unfinished)

        while unfinished:
            run = pick()
            cache.deplete(run)
            self._blocks_depleted += 1
            if config.cpu_ms_per_block > 0:
                self._cpu_busy_ms += config.cpu_ms_per_block
                if trace is not None:
                    trace.span(
                        EventKind.CPU_MERGE,
                        "cpu",
                        self.sim.now,
                        self.sim.now + config.cpu_ms_per_block,
                        {"run": run},
                    )
                yield self.sim.timeout(config.cpu_ms_per_block)
            elif trace is not None:
                trace.instant(
                    EventKind.CPU_MERGE, "cpu", self.sim.now, {"run": run}
                )
            if self.writes is not None:
                backpressure = self.writes.write_block()
                if backpressure is not None:
                    stall_start = self.sim.now
                    yield backpressure
                    self._write_stall_ms += self.sim.now - stall_start
                    if trace is not None and self.sim.now > stall_start:
                        trace.span(
                            EventKind.WRITE_STALL,
                            "cpu",
                            stall_start,
                            self.sim.now,
                        )

            state = cache.runs[run]
            if state.finished:
                unfinished.remove(run)
                continue
            if state.cached > 0:
                continue

            # Demand situation: the merge stalls until run's next block
            # is resident.
            self._demand_situations += 1
            stall_start = self.sim.now
            degraded_at_start = self._demand_disk_degraded(run)
            if state.in_flight > 0:
                self._demand_hits_in_flight += 1
                yield cache.arrival_event(run, state.next_deplete)
            else:
                plan = self.planner.plan(self, run)
                self._record_decision(plan)
                requests = self._issue(plan)
                if config.synchronized:
                    wait_event: Event = AllOf(
                        self.sim, [req.completed for req in requests]
                    )
                else:
                    wait_event = requests[0].demand_event
                timeout_ms = (
                    self.injector.demand_timeout_ms
                    if self.injector is not None
                    else None
                )
                if timeout_ms is None:
                    yield wait_event
                else:
                    yield from self._wait_with_timeout(
                        wait_event, requests, timeout_ms
                    )
            stalled = self.sim.now - stall_start
            self._cpu_stall_ms += stalled
            self._attribute_stall(run, stalled, degraded_at_start)
            if trace is not None and stalled > 0:
                trace.span(
                    EventKind.DEMAND_STALL,
                    "cpu",
                    stall_start,
                    self.sim.now,
                    {"run": run},
                )
                trace.observe_stall(stalled)

        if self.writes is not None:
            drain = self.writes.drain_event()
            if drain is not None:
                yield drain
        return None

    def _make_picker(self, unfinished: list[int]) -> Callable[[], int]:
        if self._depletion_source is not None:
            source = self._depletion_source

            def pick_from_source() -> int:
                run = next(source)
                if run not in unfinished:
                    raise RuntimeError(
                        f"depletion source chose finished/unknown run {run}"
                    )
                return run

            return pick_from_source

        rng = self._depletion_rng

        def pick_random() -> int:
            return unfinished[rng.randrange(len(unfinished))]

        return pick_random

    def _wait_with_timeout(
        self,
        wait_event: Event,
        requests: list[BlockFetchRequest],
        timeout_ms: float,
    ) -> Generator:
        """Wait for ``wait_event``, escalating the stalled requests at
        the drive every ``timeout_ms`` of demand stall.

        Escalation moves still-queued requests to the front of their
        drive's queue; a request already in service is left alone (the
        drive's own retry policy governs it).  No duplicate reads are
        ever issued, so cache arrival accounting stays strictly
        in-order.
        """
        while not wait_event.triggered:
            winner = yield AnyOf(
                self.sim, [wait_event, self.sim.timeout(timeout_ms)]
            )
            if winner is wait_event:
                return
            self._demand_timeouts += 1
            if self.trace is not None:
                self.trace.instant(
                    EventKind.DEMAND_TIMEOUT,
                    "cpu",
                    self.sim.now,
                    {"timeout_ms": timeout_ms},
                )
            for request in requests:
                if not request.completed.triggered:
                    disk = self.layout.disk_of_run(request.run)
                    self.drives[disk].escalate(request)
        yield wait_event

    def _demand_disk_degraded(self, run: int) -> bool:
        """Is the demand run's drive degraded right now?

        Queries the injector directly (not the planner view) so the
        check is never counted as a prefetch skip.
        """
        if self.injector is None:
            return False
        disk = self.layout.disk_of_run(run)
        return self.injector.drive_degraded(disk, self.sim.now)

    def _attribute_stall(
        self, run: int, stalled: float, degraded_at_start: bool
    ) -> None:
        """Split a demand stall into healthy vs fault-induced time.

        A stall counts as fault-induced when the demand run's drive was
        degraded at either boundary of the stall (a recovered outage
        still caused the wait even though the drive is healthy by the
        time the block arrives).  Computed for every run -- with no
        injector all stall is healthy, matching fault-free accounting
        exactly.
        """
        if stalled <= 0:
            return
        if degraded_at_start or self._demand_disk_degraded(run):
            self._fault_stall_ms += stalled
        else:
            self._healthy_stall_ms += stalled

    def _record_decision(self, plan: FetchPlan) -> None:
        if plan.counts_as_decision:
            self._fetch_decisions += 1
            if plan.full_prefetch:
                self._full_prefetch_decisions += 1

    def _issue(self, plan: FetchPlan) -> list[BlockFetchRequest]:
        """Reserve cache space and queue one request per fetch group."""
        requests: list[BlockFetchRequest] = []
        for group in plan.groups:
            state = self.cache.runs[group.run]
            first_block = state.next_fetch
            self.cache.reserve(group.run, group.count)
            kind = FetchKind.DEMAND if group.demand else FetchKind.PREFETCH
            request = BlockFetchRequest(
                self.sim,
                run=group.run,
                first_block=first_block,
                count=group.count,
                kind=kind,
            )
            for offset, event in enumerate(request.block_events):
                index = first_block + offset
                # Callbacks run on failure too (retry exhaustion,
                # permanent outage); only a successful read fills the
                # cache slot.
                event.add_callback(
                    lambda ev, run=group.run, idx=index: (
                        self.cache.block_arrived(run, idx)
                        if ev.exception is None
                        else None
                    )
                )
            disk = self.layout.disk_of_run(group.run)
            self.drives[disk].submit(request)
            requests.append(request)
            self._fetch_requests += 1
            self._blocks_fetched += group.count
        return requests

    def _collect_metrics(self) -> MergeMetrics:
        metrics = MergeMetrics(
            config_description=self.config.describe(),
            seed=self.seed,
            total_time_ms=self.sim.now,
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
            cache_min_free=self.cache.min_free,
            cache_mean_occupancy=self.cache.mean_occupancy(),
            cache_peak_occupancy=self.cache.peak_occupancy,
            blocks_written=(
                self.writes.stats.blocks_written if self.writes else 0
            ),
            write_stall_ms=self._write_stall_ms,
            write_stalls=self.writes.stats.stalls if self.writes else 0,
            fault_stall_ms=self._fault_stall_ms,
            healthy_stall_ms=self._healthy_stall_ms,
            demand_timeouts=self._demand_timeouts,
            degraded_skips=self._degraded_skips,
        )
        if self.trace is not None:
            self.trace.finalize(metrics)
        return metrics
