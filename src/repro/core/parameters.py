"""Configuration objects and the calibrated paper parameters.

The ICDE '92 scan available to us garbles most digits, so the disk
constants here were **reconstructed** by inverting the paper's own
analytical formulas against its quoted results (totals of 357.2 s /
910 s for the single-disk no-prefetch baselines, the 51.2 s / 102.4 s
transfer-time lower bounds, 279.0 s and 558.1 s multi-disk baselines,
81.8 s / 183.2 s intra-run times at ``N=10``, and the urn-game overlaps
2.51 / 3.66 / 5.92).  With the values below every one of those numbers
is reproduced to the printed precision; see
``tests/analysis/test_paper_numbers.py``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.disks.drive import QueueDiscipline
from repro.disks.geometry import PAPER_GEOMETRY, DiskGeometry
from repro.faults.plan import FaultPlan
from repro.sim.kernel import get_kernel


@dataclass(frozen=True)
class DiskParameters:
    """Mechanical timing of one drive (milliseconds).

    Attributes:
        seek_ms_per_cylinder: ``S``, linear seek cost per cylinder
            crossed.  The paper notes a linear model overestimates seeks
            but keeps it for simplicity.
        avg_rotational_latency_ms: ``R``, defined as half of one full
            platter revolution.
        transfer_ms_per_block: ``T``, time to transfer one 4096-byte
            block (2.0 MB/s sustained).
    """

    seek_ms_per_cylinder: float = 0.03
    avg_rotational_latency_ms: float = 8.33
    transfer_ms_per_block: float = 2.05

    def __post_init__(self) -> None:
        if self.seek_ms_per_cylinder < 0:
            raise ValueError("seek time must be non-negative")
        if self.avg_rotational_latency_ms < 0:
            raise ValueError("rotational latency must be non-negative")
        if self.transfer_ms_per_block <= 0:
            raise ValueError("transfer time must be positive")

    @property
    def rotation_period_ms(self) -> float:
        """One full revolution: rotational latency is Uniform(0, this)."""
        return 2.0 * self.avg_rotational_latency_ms


#: The drive simulated in the paper (DEC RA8x class): S = 0.03 ms/cyl,
#: R = 8.33 ms (3600 RPM), T = 2.05 ms per 4 KiB block.
PAPER_DISK = DiskParameters()

#: Blocks per run used throughout the paper's evaluation.
PAPER_BLOCKS_PER_RUN = 1000

#: Records per 4096-byte block (64-byte records).
PAPER_RECORDS_PER_BLOCK = 64

#: Trials averaged per plotted point.
PAPER_TRIALS = 5

#: Scheduled-event allowance per merged block in a trial's event budget
#: (:attr:`SimulationConfig.event_budget`).  Every block is fetched and
#: depleted once, so a trial's events grow with its blocks: the
#: reference kernel schedules 1.9-4.9 events per block across the
#: kernel-equivalence matrix (write disks reach ~10).  64 leaves over
#: 10x headroom, so only a runaway trial can exhaust the budget.
EVENTS_PER_BLOCK = 64


class PrefetchStrategy(enum.Enum):
    """Which of the paper's strategies the merge uses.

    * ``NONE``: demand-fetch one block at a time (Kwan-Baer baseline).
    * ``INTRA_RUN``: fetch ``N`` contiguous blocks of the demand run
      ("Demand Run Only" in the figures).
    * ``INTER_RUN``: additionally prefetch ``N`` blocks of one run on
      every other disk ("All Disks One Run"); falls back to a single
      demand block when the cache cannot hold all ``D*N`` blocks.
    """

    NONE = "none"
    INTRA_RUN = "intra-run"
    INTER_RUN = "inter-run"


class CachePolicy(enum.Enum):
    """Almost-full-cache behaviour for inter-run prefetching.

    ``CONSERVATIVE`` (the paper's choice, justified by the companion
    Markov analysis): if the cache cannot hold all ``D*N`` prefetch
    blocks, fetch only the demand block, freeing space quickly so full
    parallel prefetches resume sooner.  ``GREEDY``: fill whatever space
    is available with a partial prefetch.
    """

    CONSERVATIVE = "conservative"
    GREEDY = "greedy"


class VictimSelector(enum.Enum):
    """How the run to prefetch on each non-demand disk is chosen.

    ``RANDOM`` is the paper's policy.  The others reproduce the
    head-position and urgency heuristics the authors report studying in
    the companion thesis and finding only marginally better.
    """

    RANDOM = "random"
    NEAREST_HEAD = "nearest-head"
    ROUND_ROBIN = "round-robin"
    MOST_DEPLETED = "most-depleted"


@dataclass(frozen=True)
class SimulationConfig:
    """Full description of one merge-phase simulation.

    Recording is not configuration: timelines and per-request traces are
    views (:mod:`repro.obs.views`) over an ambient trace session, so
    observing a trial never changes its config, metrics, or cache key.

    Attributes:
        num_runs: ``k``, number of sorted input runs.
        num_disks: ``D``, number of input disks.
        strategy: prefetching strategy.
        prefetch_depth: ``N``, contiguous blocks per fetch (ignored for
            ``NONE``).
        blocks_per_run: run length in blocks (1000 in the paper).
        cache_capacity: cache size ``C`` in blocks, or ``None`` to use
            the strategy's natural size (``k`` for no prefetching,
            ``k*N`` for intra-run, a generous ``k*N*(1 + D/2)`` for
            inter-run, which empirically yields a success ratio near 1).
        synchronized: wait for every block of a fetch group before the
            CPU resumes (vs. only the demand block).
        cpu_ms_per_block: CPU time to merge the records of one block
            (0 models the paper's infinitely fast CPU).
        cache_policy: conservative or greedy almost-full behaviour.
        victim_selector: prefetch-run choice on non-demand disks.
        disk: drive timing parameters.
        geometry: drive geometry.
        trials: independent trials averaged by :class:`MergeSimulation`.
        base_seed: root seed; trial ``t`` uses ``base_seed + t``.
        stream_across_requests: ablation flag -- let back-to-back
            sequential requests skip positioning costs.
        queue_discipline: per-drive request ordering (FIFO in the
            paper; SSTF available as a scheduling ablation).
        write_disks: size of the separate output array.  0 (the paper's
            model) ignores write traffic entirely; with ``W > 0`` every
            depleted block emits an output block to one of ``W`` write
            disks round-robin, and the merge stalls when the target
            disk's buffer is full.
        write_buffer_blocks: per-write-disk buffer depth before
            backpressure stalls the merge.
        adaptive_depth: (inter-run extension) size each fetch's depth
            to the free cache -- ``N' = clamp(free // D, 1, N)`` --
            instead of the paper's all-or-nothing ``D*N`` check.
        fault_plan: declarative per-drive fault schedule plus the
            resilience policy responding to it (see
            :mod:`repro.faults`).  ``None`` -- and an *empty* plan --
            reproduce the paper's perfectly reliable disks exactly.
        kernel: which simulation kernel runs the trial.  Any name in
            the :mod:`repro.sim.kernel` registry is accepted; the
            built-ins are ``"reference"`` (the readable baseline and
            bit-identity oracle) and ``"batch"`` (the flattened
            whole-batch interpreter, see :mod:`repro.sim.batch`,
            dispatched through :func:`repro.api.run_trials`).  Every
            registered kernel produces bit-identical metrics, so the
            choice affects wall time only; it is deliberately excluded
            from cache keys and from :meth:`describe`.
    """

    num_runs: int
    num_disks: int
    strategy: PrefetchStrategy = PrefetchStrategy.NONE
    prefetch_depth: int = 1
    blocks_per_run: int = PAPER_BLOCKS_PER_RUN
    cache_capacity: int | None = None
    synchronized: bool = False
    cpu_ms_per_block: float = 0.0
    cache_policy: CachePolicy = CachePolicy.CONSERVATIVE
    victim_selector: VictimSelector = VictimSelector.RANDOM
    disk: DiskParameters = field(default_factory=DiskParameters)
    geometry: DiskGeometry = field(default_factory=lambda: PAPER_GEOMETRY)
    trials: int = PAPER_TRIALS
    base_seed: int = 1992
    stream_across_requests: bool = False
    queue_discipline: QueueDiscipline = QueueDiscipline.FIFO
    write_disks: int = 0
    write_buffer_blocks: int = 2
    adaptive_depth: bool = False
    fault_plan: Optional[FaultPlan] = None
    kernel: str = "reference"

    def __post_init__(self) -> None:
        # Registry lookup raises the canonical "unknown simulation
        # kernel ...: choose one of ..." ValueError for bad names.
        get_kernel(self.kernel)
        if self.num_runs < 1:
            raise ValueError("num_runs must be >= 1")
        if self.num_disks < 1:
            raise ValueError("num_disks must be >= 1")
        if self.prefetch_depth < 1:
            raise ValueError("prefetch_depth (N) must be >= 1")
        if self.blocks_per_run < 1:
            raise ValueError("blocks_per_run must be >= 1")
        if self.cpu_ms_per_block < 0:
            raise ValueError("cpu_ms_per_block must be non-negative")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.write_disks < 0:
            raise ValueError("write_disks must be >= 0")
        if self.write_buffer_blocks < 1:
            raise ValueError("write_buffer_blocks must be >= 1")
        if self.fault_plan is not None:
            if isinstance(self.fault_plan, dict):
                object.__setattr__(
                    self, "fault_plan", FaultPlan.from_dict(self.fault_plan)
                )
            self.fault_plan.validate(self.num_disks)
        minimum = self.minimum_cache_capacity
        if self.cache_capacity is not None and self.cache_capacity < minimum:
            raise ValueError(
                f"cache_capacity={self.cache_capacity} below the minimum "
                f"{minimum} needed to hold the initial {self.initial_blocks_per_run} "
                f"block(s) of each of the {self.num_runs} runs"
            )

    @property
    def effective_depth(self) -> int:
        """``N`` as actually used (1 when no prefetching)."""
        if self.strategy is PrefetchStrategy.NONE:
            return 1
        return self.prefetch_depth

    @property
    def initial_blocks_per_run(self) -> int:
        """Blocks of each run preloaded before the merge starts."""
        return min(self.effective_depth, self.blocks_per_run)

    @property
    def minimum_cache_capacity(self) -> int:
        """Smallest legal cache: the initial load of every run."""
        return self.num_runs * self.initial_blocks_per_run

    @property
    def resolved_cache_capacity(self) -> int:
        """The cache size actually simulated."""
        if self.cache_capacity is not None:
            return self.cache_capacity
        if self.strategy is PrefetchStrategy.INTER_RUN:
            # Large enough for a success ratio near 1 (cf. Figure 3.5/3.6).
            generous = self.num_runs * self.effective_depth * (1 + self.num_disks / 2)
            return int(generous)
        return self.minimum_cache_capacity

    @property
    def total_blocks(self) -> int:
        """Blocks merged in one trial: ``k * blocks_per_run``."""
        return self.num_runs * self.blocks_per_run

    @property
    def event_budget(self) -> int:
        """Most events one trial may schedule before it is a runaway.

        ``EVENTS_PER_BLOCK`` per merged block, per allowed fetch
        attempt under a fault plan; each drive (input and write) adds
        one block's worth, covering fixed per-drive events in tiny
        merges.  Exhausting it raises
        :class:`~repro.sim.kernel.TrialBudgetExceeded` on every kernel.
        """
        attempts = (
            self.fault_plan.retry.max_attempts
            if self.fault_plan is not None
            else 1
        )
        units = self.total_blocks + self.num_disks + self.write_disks
        return EVENTS_PER_BLOCK * units * attempts

    @property
    def run_cylinders(self) -> float:
        """``m``: run length in cylinders."""
        return self.blocks_per_run / self.geometry.blocks_per_cylinder

    def describe(self) -> str:
        """A one-line human-readable summary.

        An empty fault plan adds nothing, so its description (and
        therefore its metrics) match the plan-free baseline exactly.
        """
        sync = "sync" if self.synchronized else "unsync"
        base = (
            f"k={self.num_runs} D={self.num_disks} {self.strategy.value} "
            f"N={self.effective_depth} C={self.resolved_cache_capacity} {sync} "
            f"cpu={self.cpu_ms_per_block}ms"
        )
        if self.fault_plan is not None and not self.fault_plan.is_empty():
            base += f" faults={self.fault_plan.describe_short()}"
        return base
