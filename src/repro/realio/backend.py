"""The real-I/O merge backend.

Runs the *same* prefetch strategies as the simulator — the planners of
:mod:`repro.core.strategies`, unmodified — against real run files, with
one reader thread per "disk" directory standing in for each of the
``D`` independent drives and a :class:`~repro.realio.pool.BufferPool`
enforcing the paper's allocation discipline (reserve-at-issue,
release-at-deplete).

Structure of one trial, mirroring
:meth:`repro.core.merge_sim.MergeTrial._merge_loop`:

1. **Preload**: the initial ``N`` blocks of every run are fetched and
   awaited before the merge clock starts (the simulator installs them
   at zero cost).
2. **Merge**: a :class:`~repro.mergesort.tournament.LoserTree` streams
   records; when a run crosses a block boundary its block is depleted
   (freeing a pool slot) and, if the next block is neither resident nor
   in flight, a *demand situation* invokes the planner — reserve the
   plan's groups, enqueue one read request per group at its disk, and
   stall until the demand block arrives.
3. Reader threads drain their per-disk FIFO queues, delivering payloads
   through :meth:`BufferPool.block_arrived` and timing each request
   through the injected :data:`~repro.realio.clock.ClockMs`.

Every request emits the same obs events as a simulated drive —
``DEMAND_FETCH``/``PREFETCH`` service spans (with ``issue_ms``) on
``disk-i`` tracks, ``DEMAND_STALL`` spans on ``cpu``, queue-depth/
service/stall histograms — so real traces load into the identical
Chrome-trace/JSONL tooling and request views (:mod:`repro.obs.views`),
and
satisfy the same busy-accounting closure (service spans sum to
``DriveStats.busy_ms``).  Per-request :class:`ReadSample` timings feed
the calibration layer (:mod:`repro.realio.calibrate`).
"""

from __future__ import annotations

import dataclasses
import queue
import random
import threading
from pathlib import Path
from typing import BinaryIO, Optional, Sequence

from repro.core.cache import RunCacheState  # noqa: F401  (re-export for views)
from repro.core.metrics import AggregateMetrics, MergeMetrics
from repro.core.parameters import CachePolicy, PrefetchStrategy, VictimSelector
from repro.core.strategies import FetchPlan, build_planner
from repro.disks.drive import DriveStats
from repro.disks.layout import RunLayout
from repro.io.blockio import BLOCK_BYTES
from repro.io.codec import RecordCodec
from repro.mergesort.tournament import LoserTree
from repro.obs.collector import TrialTrace
from repro.obs.events import EventKind
from repro.realio.clock import (
    ClockMs,
    SleepMs,
    blocking_sleep_ms,
    wall_clock_ms,
)
from repro.realio.dataset import RealDataset
from repro.realio.pool import BufferPool

#: The strategy variant names the realio bench scenario exposes.
STRATEGY_NAMES = tuple(s.value for s in PrefetchStrategy)


@dataclasses.dataclass(frozen=True)
class RealIOConfig:
    """One real-I/O merge configuration (the dataset supplies k and D).

    ``throttle_ms_per_block`` optionally sleeps the reader after every
    block read — a documented device-emulation knob that makes page-
    cache-fast storage behave like a slower drive so strategy gaps are
    measurable; 0 (the default) reads at native speed.
    """

    strategy: PrefetchStrategy = PrefetchStrategy.INTRA_RUN
    prefetch_depth: int = 4
    cache_capacity: Optional[int] = None
    cache_policy: CachePolicy = CachePolicy.CONSERVATIVE
    victim_selector: VictimSelector = VictimSelector.RANDOM
    throttle_ms_per_block: float = 0.0
    #: Deadlock guard on demand waits; generous, never an expected path.
    demand_timeout_ms: float = 60_000.0

    def __post_init__(self) -> None:
        if self.prefetch_depth < 1:
            raise ValueError("prefetch_depth (N) must be >= 1")
        if self.throttle_ms_per_block < 0:
            raise ValueError("throttle must be non-negative")

    @property
    def effective_depth(self) -> int:
        if self.strategy is PrefetchStrategy.NONE:
            return 1
        return self.prefetch_depth

    def initial_blocks(self, dataset: RealDataset) -> list[int]:
        """Blocks of each run fetched before the merge clock starts."""
        return [
            min(self.effective_depth, blocks)
            for blocks in dataset.run_blocks
        ]

    def resolved_cache_capacity(self, dataset: RealDataset) -> int:
        """Pool size in blocks, by the simulator's sizing rules."""
        if self.cache_capacity is not None:
            return self.cache_capacity
        if self.strategy is PrefetchStrategy.INTER_RUN:
            generous = (
                dataset.num_runs
                * self.effective_depth
                * (1 + dataset.num_disks / 2)
            )
            return int(generous)
        return sum(self.initial_blocks(dataset))

    def describe(self, dataset: RealDataset) -> str:
        base = (
            f"realio k={dataset.num_runs} D={dataset.num_disks} "
            f"{self.strategy.value} N={self.effective_depth} "
            f"C={self.resolved_cache_capacity(dataset)}"
        )
        if self.throttle_ms_per_block > 0:
            base += f" throttle={self.throttle_ms_per_block:g}ms"
        return base


@dataclasses.dataclass(frozen=True)
class ReadSample:
    """One serviced read request, as measured at the reader thread."""

    disk: int
    seek_cylinders: int
    blocks: int
    service_ms: float
    queue_wait_ms: float
    demand: bool


@dataclasses.dataclass(frozen=True)
class _ReadRequest:
    run: int
    start: int
    count: int
    demand: bool
    enqueued_ms: float


@dataclasses.dataclass
class RealMergeResult:
    """Everything one real merge trial produced."""

    metrics: MergeMetrics
    samples: list[ReadSample]
    records_merged: int
    sorted_ok: bool


class RealMerge:
    """One trial of a real-file k-way merge under a prefetch strategy."""

    def __init__(
        self,
        dataset: RealDataset,
        config: RealIOConfig,
        seed: int = 1992,
        trace: Optional[TrialTrace] = None,
        output_path: Optional[Path] = None,
        clock: ClockMs = wall_clock_ms,
        sleep: SleepMs = blocking_sleep_ms,
        codec: Optional[RecordCodec] = None,
    ) -> None:
        self.dataset = dataset
        self.config = config
        self.seed = seed
        self.trace = trace
        self.output_path = Path(output_path) if output_path else None
        self.clock = clock
        self.sleep = sleep
        self.codec = codec or RecordCodec()
        self.records_per_block = BLOCK_BYTES // self.codec.record_bytes

        # The planner's read-only SystemView: this object (layout,
        # cache, head_cylinder) — the same duck typing the simulator's
        # MergeTrial provides.
        self.layout = RunLayout(
            num_runs=dataset.num_runs,
            num_disks=dataset.num_disks,
            blocks_per_run=dataset.blocks_per_run,
        )
        capacity = config.resolved_cache_capacity(dataset)
        floor = sum(config.initial_blocks(dataset))
        if capacity < floor:
            raise ValueError(
                f"cache of {capacity} blocks cannot hold the preload of "
                f"{floor} blocks (k runs x N initial blocks)"
            )
        self.cache = BufferPool(capacity, dataset.run_blocks)
        rng = random.Random(seed)
        self.planner = build_planner(
            config.strategy,
            config.effective_depth,
            dataset.num_disks,
            config.cache_policy,
            config.victim_selector,
            rng,
        )

        self._queues: list[queue.Queue] = [
            queue.Queue() for _ in range(dataset.num_disks)
        ]
        self._threads: list[threading.Thread] = []
        # Guards the cross-thread result collections below: every
        # reader thread appends to them concurrently.
        self._results_lock = threading.Lock()
        self._reader_errors: list[BaseException] = []
        # One slot per disk, written only by that disk's reader thread;
        # the merge thread reads it between requests for seek planning.
        self._head_cylinder = [0] * dataset.num_disks  # repro-lint: shared-state=single-writer: slot [d] is owned by disk d's reader thread
        self._stats = [DriveStats() for _ in range(dataset.num_disks)]
        self._intervals: list[list[tuple[float, float]]] = [  # repro-lint: shared-state=single-writer: list [d] is owned by disk d's reader thread, read after join
            [] for _ in range(dataset.num_disks)
        ]
        self.samples: list[ReadSample] = []
        self._epoch_ms = 0.0

        self._blocks_depleted = 0
        self._blocks_fetched = 0
        self._fetch_requests = 0
        self._demand_situations = 0
        self._demand_hits_in_flight = 0
        self._fetch_decisions = 0
        self._full_prefetch_decisions = 0
        self._cpu_stall_ms = 0.0

    # -- SystemView ----------------------------------------------------------
    def head_cylinder(self, disk: int) -> int:
        return self._head_cylinder[disk]

    # -- the trial -----------------------------------------------------------
    def run(self) -> RealMergeResult:
        """Execute the merge; returns metrics, samples, and a sort check."""
        self._epoch_ms = self.clock()
        self._start_readers()
        try:
            self._preload()
            merge_start = self.clock()
            records, ordered, blocks_written = self._merge()
            total_ms = self.clock() - merge_start
        finally:
            self._stop_readers()
        if self._reader_errors:
            raise self._reader_errors[0]
        self.cache.check()
        metrics = self._collect_metrics(total_ms, blocks_written)
        if self.trace is not None:
            self.trace.finalize(metrics)
        return RealMergeResult(
            metrics=metrics,
            samples=self.samples,
            records_merged=records,
            sorted_ok=ordered,
        )

    # -- reader threads ------------------------------------------------------
    def _start_readers(self) -> None:
        for disk in range(self.dataset.num_disks):
            thread = threading.Thread(
                target=self._reader_loop,
                args=(disk,),
                name=f"realio-disk-{disk}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()

    def _stop_readers(self) -> None:
        for q in self._queues:
            q.put(None)
        for thread in self._threads:
            thread.join(timeout=30.0)

    def _reader_loop(self, disk: int) -> None:
        stats = self._stats[disk]
        handles: dict[int, BinaryIO] = {}
        throttle = self.config.throttle_ms_per_block
        try:
            while True:
                request = self._queues[disk].get()
                if request is None:
                    break
                service_start = self.clock()
                handle = handles.get(request.run)
                if handle is None:
                    handle = open(self.dataset.run_paths[request.run], "rb")
                    handles[request.run] = handle
                target = self.layout.cylinder_of(request.run, request.start)
                distance = abs(target - self._head_cylinder[disk])
                handle.seek((1 + request.start) * BLOCK_BYTES)
                for i in range(request.count):
                    payload = handle.read(BLOCK_BYTES)
                    if throttle > 0:
                        self.sleep(throttle)
                    self.cache.block_arrived(
                        request.run, request.start + i, payload
                    )
                service_end = self.clock()
                self._head_cylinder[disk] = self.layout.cylinder_of(
                    request.run, request.start + request.count - 1
                )
                service_ms = service_end - service_start
                queue_wait_ms = max(0.0, service_start - request.enqueued_ms)
                stats.requests += 1
                stats.blocks += request.count
                if request.demand:
                    stats.demand_requests += 1
                else:
                    stats.prefetch_requests += 1
                stats.busy_ms += service_ms
                stats.queue_wait_ms += queue_wait_ms
                stats.seek_cylinders += distance
                if distance == 0:
                    stats.sequential_requests += 1
                self._intervals[disk].append(
                    (service_start - self._epoch_ms,
                     service_end - self._epoch_ms)
                )
                with self._results_lock:
                    self.samples.append(ReadSample(
                        disk=disk,
                        seek_cylinders=distance,
                        blocks=request.count,
                        service_ms=service_ms,
                        queue_wait_ms=queue_wait_ms,
                        demand=request.demand,
                    ))
                trace = self.trace
                if trace is not None:
                    kind = (EventKind.DEMAND_FETCH if request.demand
                            else EventKind.PREFETCH)
                    track = f"disk-{disk}"
                    start_ms = service_start - self._epoch_ms
                    trace.span(
                        kind,
                        track,
                        start_ms,
                        service_end - self._epoch_ms,
                        {"run": request.run, "start": request.start,
                         "blocks": request.count,
                         "issue_ms": start_ms - queue_wait_ms},
                    )
                    trace.observe_service(
                        track, kind.value, service_ms, queue_wait_ms
                    )
        except BaseException as exc:  # noqa: BLE001 - relayed to the merge
            # Thread isolation boundary: the merge thread times out on
            # its demand wait and re-raises this as the trial's error.
            with self._results_lock:
                self._reader_errors.append(exc)
        finally:
            for handle in handles.values():
                handle.close()

    # -- issuing fetches -----------------------------------------------------
    def _submit(self, run: int, count: int, demand: bool) -> None:
        """Reserve pool space and enqueue one read at the run's disk."""
        state = self.cache.runs[run]
        start = state.next_fetch
        self.cache.reserve(run, count)
        disk = self.layout.disk_of_run(run)
        depth = self._queues[disk].qsize()
        stats = self._stats[disk]
        stats.max_queue_length = max(stats.max_queue_length, depth + 1)
        if self.trace is not None:
            self.trace.observe_queue_depth(f"disk-{disk}", depth)
        self._queues[disk].put(_ReadRequest(
            run=run, start=start, count=count, demand=demand,
            enqueued_ms=self.clock(),
        ))
        self._fetch_requests += 1
        self._blocks_fetched += count

    def _issue(self, plan: FetchPlan) -> None:
        for group in plan.groups:
            count = min(group.count, self.cache.runs[group.run].on_disk)
            if count < 1:
                continue
            self._submit(group.run, count, group.demand)

    def _record_decision(self, plan: FetchPlan) -> None:
        if plan.counts_as_decision:
            self._fetch_decisions += 1
            if plan.full_prefetch:
                self._full_prefetch_decisions += 1

    # -- preload -------------------------------------------------------------
    def _preload(self) -> None:
        initial = self.config.initial_blocks(self.dataset)
        for run, count in enumerate(initial):
            self._submit(run, count, demand=False)
        for run, count in enumerate(initial):
            self.cache.wait_for_arrival(
                run, count - 1, self._wait_timeout_ms()
            )

    def _wait_timeout_ms(self) -> float:
        # Scale the deadlock guard with deliberate throttling so slow
        # emulated devices don't trip it.
        per_block = self.config.throttle_ms_per_block
        budget = per_block * self.cache.capacity * 4
        return max(self.config.demand_timeout_ms, budget)

    # -- the merge loop ------------------------------------------------------
    def _merge(self) -> tuple[int, bool, int]:
        """K-way merge every run stream; returns (records, sorted, blocks)."""
        streams = [
            self._run_stream(run) for run in range(self.dataset.num_runs)
        ]
        tree = LoserTree(streams)
        records = 0
        ordered = True
        previous = None
        writer = None
        if self.output_path is not None:
            from repro.io.blockio import BlockWriter

            writer = BlockWriter(self.output_path, self.codec)
        try:
            for record in tree:
                if previous is not None and record < previous:
                    ordered = False
                previous = record
                records += 1
                if writer is not None:
                    writer.write(record)
        finally:
            if writer is not None:
                writer.close()
        blocks_written = writer.blocks_written if writer is not None else 0
        return records, ordered, blocks_written

    def _run_stream(self, run: int):
        """Generator yielding the records of ``run``, block by block."""
        remaining = self.dataset.run_records[run]
        record_bytes = self.codec.record_bytes
        while remaining > 0:
            payload = self._acquire_block(run)
            in_block = min(self.records_per_block, remaining)
            for record in self.codec.decode_many(
                payload[: in_block * record_bytes]
            ):
                yield record
            remaining -= in_block
            self.cache.deplete(run)
            self._blocks_depleted += 1

    def _acquire_block(self, run: int) -> bytes:
        """The leading resident block of ``run``, demand-fetching if needed."""
        state = self.cache.runs[run]
        if state.cached == 0:
            self._demand(run)
        return self.cache.peek(run)

    def _demand(self, run: int) -> None:
        """One demand situation: plan, issue, and stall for the block."""
        self._demand_situations += 1
        state = self.cache.runs[run]
        stall_start = self.clock()
        if state.in_flight > 0:
            self._demand_hits_in_flight += 1
        else:
            plan = self.planner.plan(self, run)
            self._record_decision(plan)
            self._issue(plan)
        try:
            self.cache.wait_for_arrival(
                run, state.next_deplete, self._wait_timeout_ms()
            )
        except TimeoutError:
            if self._reader_errors:
                raise self._reader_errors[0] from None
            raise
        stalled = self.clock() - stall_start
        self._cpu_stall_ms += stalled
        trace = self.trace
        if trace is not None:
            trace.span(
                EventKind.DEMAND_STALL,
                "cpu",
                stall_start - self._epoch_ms,
                stall_start - self._epoch_ms + stalled,
                {"run": run},
            )
            trace.observe_stall(stalled)

    # -- metrics -------------------------------------------------------------
    def _collect_metrics(
        self, total_ms: float, blocks_written: int
    ) -> MergeMetrics:
        concurrency = _concurrency_of(self._intervals, total_ms)
        return MergeMetrics(
            config_description=self.config.describe(self.dataset),
            seed=self.seed,
            total_time_ms=total_ms,
            blocks_depleted=self._blocks_depleted,
            blocks_fetched=self._blocks_fetched,
            fetch_requests=self._fetch_requests,
            demand_situations=self._demand_situations,
            demand_hits_in_flight=self._demand_hits_in_flight,
            fetch_decisions=self._fetch_decisions,
            full_prefetch_decisions=self._full_prefetch_decisions,
            cpu_stall_ms=self._cpu_stall_ms,
            cpu_busy_ms=max(0.0, total_ms - self._cpu_stall_ms),
            drive_stats=self._stats,
            average_concurrency=concurrency.average,
            peak_concurrency=concurrency.peak,
            disk_busy_fraction=concurrency.busy_fraction,
            cache_min_free=self.cache.min_free,
            cache_mean_occupancy=float(self.cache.peak_occupancy),
            cache_peak_occupancy=self.cache.peak_occupancy,
            blocks_written=blocks_written,
        )


@dataclasses.dataclass(frozen=True)
class _Concurrency:
    average: float
    peak: int
    busy_fraction: float


def _concurrency_of(
    intervals: Sequence[Sequence[tuple[float, float]]], total_ms: float
) -> _Concurrency:
    """Time-weighted busy-disk statistics from per-disk service spans."""
    edges: list[tuple[float, int]] = []
    for disk_intervals in intervals:
        for start, end in disk_intervals:
            edges.append((start, 1))
            edges.append((end, -1))
    if not edges:
        return _Concurrency(average=0.0, peak=0, busy_fraction=0.0)
    edges.sort()
    busy = 0
    peak = 0
    weighted = 0.0
    active = 0.0
    last = edges[0][0]
    for at, delta in edges:
        span = at - last
        if span > 0 and busy > 0:
            weighted += busy * span
            active += span
        busy += delta
        peak = max(peak, busy)
        last = at
    average = weighted / active if active > 0 else 0.0
    fraction = active / total_ms if total_ms > 0 else 0.0
    return _Concurrency(
        average=average, peak=peak, busy_fraction=min(1.0, fraction)
    )


@dataclasses.dataclass
class RealMergeOutcome:
    """Aggregated trials of one configuration on one dataset."""

    aggregate: AggregateMetrics
    samples: list[ReadSample]
    records_merged: int
    sorted_ok: bool

    @property
    def trials(self) -> list[MergeMetrics]:
        return self.aggregate.trials


def run_real_merge(
    dataset: RealDataset,
    config: RealIOConfig,
    trials: int = 1,
    base_seed: int = 1992,
    session=None,
    output_path: Optional[Path] = None,
    clock: ClockMs = wall_clock_ms,
    sleep: SleepMs = blocking_sleep_ms,
) -> RealMergeOutcome:
    """Run ``trials`` seeded real merges; trial ``t`` uses ``base_seed+t``.

    ``session`` is an optional :class:`~repro.obs.collector.TraceSession`;
    each trial registers one TrialTrace exactly like a simulated trial.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    metrics: list[MergeMetrics] = []
    samples: list[ReadSample] = []
    records = 0
    ordered = True
    description = config.describe(dataset)
    for index in range(trials):
        seed = base_seed + index
        trace = (
            session.trial(seed, description) if session is not None else None
        )
        merge = RealMerge(
            dataset,
            config,
            seed=seed,
            trace=trace,
            output_path=output_path,
            clock=clock,
            sleep=sleep,
        )
        result = merge.run()
        metrics.append(result.metrics)
        samples.extend(result.samples)
        records = result.records_merged
        ordered = ordered and result.sorted_ok
    return RealMergeOutcome(
        aggregate=AggregateMetrics(
            config_description=description, trials=metrics
        ),
        samples=samples,
        records_merged=records,
        sorted_ok=ordered,
    )
