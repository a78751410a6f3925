"""Measurement: per-trial metrics and cross-trial aggregation.

The paper's two headline measures are the **total merge time** and, for
inter-run prefetching, the **success ratio** (fraction of demand-fetch
decisions for which the cache had room for the full ``D*N`` prefetch).
We additionally record the decomposition of disk time into seek /
rotation / transfer, the time-averaged number of concurrently busy
disks (the quantity bounded by the urn-game analysis), CPU stall time,
and cache occupancy statistics.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields
from typing import TYPE_CHECKING, Optional, Sequence

from repro.disks.drive import DriveStats
from repro.obs.events import BUSY_DISKS_TRACK, EventKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.cache import CapacityEnvelope
    from repro.obs.collector import TrialTrace
    from repro.sim.kernel import Simulator


class ConcurrencyTracker:
    """Time-weighted statistics on the number of busy disks."""

    def __init__(
        self,
        sim: "Simulator",
        num_disks: int,
        trace: Optional["TrialTrace"] = None,
    ) -> None:
        self.sim = sim
        self.num_disks = num_disks
        self._busy = [False] * num_disks
        self._busy_count = 0
        self._last_time = sim.now
        self._weighted_busy_ms = 0.0
        self._active_ms = 0.0
        self.peak = 0
        self.trace = trace

    def on_busy_change(self, disk: int, busy: bool) -> None:
        flags = self._busy
        if flags[disk] == busy:
            return
        # _advance, inlined: one call per busy transition.
        now = self.sim.now
        count = self._busy_count
        elapsed = now - self._last_time
        if elapsed > 0:
            self._weighted_busy_ms += count * elapsed
            if count > 0:
                self._active_ms += elapsed
        self._last_time = now
        flags[disk] = busy
        count += 1 if busy else -1
        self._busy_count = count
        if count > self.peak:
            self.peak = count
        if self.trace is not None:
            self.trace.instant(
                EventKind.LEVEL, BUSY_DISKS_TRACK, now, {"value": count},
            )

    def _advance(self) -> None:
        now = self.sim.now
        elapsed = now - self._last_time
        if elapsed > 0:
            self._weighted_busy_ms += self._busy_count * elapsed
            if self._busy_count > 0:
                self._active_ms += elapsed
        self._last_time = now

    def average_concurrency(self) -> float:
        """Mean busy disks over intervals where at least one is busy.

        This is the quantity the urn-game model predicts to approach
        ``sqrt(pi*D/2) - 1/3`` for unsynchronized intra-run prefetching
        at large ``N``.
        """
        self._advance()
        if self._active_ms <= 0:
            return 0.0
        return self._weighted_busy_ms / self._active_ms

    def busy_fraction(self) -> float:
        """Fraction of elapsed time during which any disk was busy."""
        self._advance()
        if self._last_time <= 0:
            return 0.0
        return self._active_ms / self._last_time


@dataclass
class MergeMetrics:
    """Everything measured in one simulation trial (times in ms)."""

    config_description: str
    seed: int
    total_time_ms: float
    blocks_depleted: int
    blocks_fetched: int
    fetch_requests: int
    demand_situations: int
    demand_hits_in_flight: int
    fetch_decisions: int
    full_prefetch_decisions: int
    cpu_stall_ms: float
    cpu_busy_ms: float
    drive_stats: list[DriveStats]
    average_concurrency: float
    peak_concurrency: int
    disk_busy_fraction: float
    cache_min_free: int
    cache_mean_occupancy: float
    cache_peak_occupancy: int
    blocks_written: int = 0
    write_stall_ms: float = 0.0
    write_stalls: int = 0
    # Fault-injection measurements (zero without a fault plan).  Stall
    # time is attributed by drive health at the moment of the stall:
    # healthy_stall_ms + fault_stall_ms == cpu_stall_ms always.
    fault_stall_ms: float = 0.0
    healthy_stall_ms: float = 0.0
    demand_timeouts: int = 0
    degraded_skips: int = 0
    # Why a batch-kernel trial ran on the reference kernel instead of
    # the interpreter (None: it did not).  Not a measurement: left out
    # of to_dict() and of equality, so results match across kernels.
    fallback: Optional[str] = field(default=None, compare=False)
    # The cache capacities that replay this trial's trajectory (see
    # repro.core.cache); None when unknown, as for loaded results.
    # Like fallback, left out of to_dict() and of equality.
    capacity_envelope: Optional["CapacityEnvelope"] = field(
        default=None, compare=False
    )

    #: Scalar fields serialized verbatim by :meth:`to_dict`.
    _SCALAR_FIELDS = (
        "config_description", "seed", "total_time_ms", "blocks_depleted",
        "blocks_fetched", "fetch_requests", "demand_situations",
        "demand_hits_in_flight", "fetch_decisions", "full_prefetch_decisions",
        "cpu_stall_ms", "cpu_busy_ms", "average_concurrency",
        "peak_concurrency", "disk_busy_fraction", "cache_min_free",
        "cache_mean_occupancy", "cache_peak_occupancy", "blocks_written",
        "write_stall_ms", "write_stalls", "fault_stall_ms",
        "healthy_stall_ms", "demand_timeouts", "degraded_skips",
    )

    def to_dict(self) -> dict:
        """JSON-able snapshot of one trial.

        Everything round-trips through :meth:`from_dict`, so cached
        sweep results are interchangeable with freshly simulated ones.
        """
        data = {name: getattr(self, name) for name in self._SCALAR_FIELDS}
        data["drive_stats"] = [stats.to_dict() for stats in self.drive_stats]
        # Always-null legacy keys: served trial payloads, stored sweep
        # entries and pinned result digests all hash this dict.
        data["concurrency_timeline"] = None
        data["cache_timeline"] = None
        data["request_traces"] = None
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "MergeMetrics":
        """Inverse of :meth:`to_dict`.

        Tolerant across schema versions: keys this version does not
        know are ignored, and known-but-absent keys fall back to their
        field defaults -- so caches written by newer writers (extra
        counters) and by older writers (missing counters) both load.
        A missing key without a default raises ``KeyError``.
        """
        kwargs = {
            name: data[name] if name in data else _METRICS_DEFAULTS[name]
            for name in cls._SCALAR_FIELDS
        }
        kwargs["drive_stats"] = [
            DriveStats.from_dict(stats) for stats in data["drive_stats"]
        ]
        return cls(**kwargs)

    @property
    def total_time_s(self) -> float:
        return self.total_time_ms / 1000.0

    @property
    def success_ratio(self) -> float:
        """Fraction of fetch decisions that initiated a full prefetch.

        Defined (per the paper) only for inter-run prefetching; returns
        1.0 when no decisions were counted so that intra-run runs read
        as "always successful".
        """
        if self.fetch_decisions == 0:
            return 1.0
        return self.full_prefetch_decisions / self.fetch_decisions

    @property
    def mean_io_ms_per_block(self) -> float:
        """Total elapsed time over blocks: comparable to the paper's tau
        only for strategies without overlap (synchronized cases)."""
        if self.blocks_depleted == 0:
            return 0.0
        return self.total_time_ms / self.blocks_depleted

    @property
    def total_seek_ms(self) -> float:
        return sum(stats.seek_ms for stats in self.drive_stats)


#: Field defaults :meth:`MergeMetrics.from_dict` falls back on, read once.
_METRICS_DEFAULTS = {
    f.name: f.default for f in fields(MergeMetrics) if f.default is not MISSING
}


#: Two-sided 95% Student-t critical values by degrees of freedom; the
#: normal value (1.960) serves beyond the table.
_T_95 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447,
    7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228, 12: 2.179, 15: 2.131,
    20: 2.086, 25: 2.060, 30: 2.042,
}


def _t_critical(degrees_of_freedom: int) -> float:
    if degrees_of_freedom <= 0:
        return float("nan")
    if degrees_of_freedom in _T_95:
        return _T_95[degrees_of_freedom]
    candidates = [df for df in _T_95 if df <= degrees_of_freedom]
    if candidates:
        return _T_95[max(candidates)] if degrees_of_freedom < 30 else 1.960
    return 1.960


@dataclass
class Aggregate:
    """Mean and sample standard deviation of one scalar across trials."""

    mean: float
    std: float
    count: int
    values: tuple[float, ...] = field(repr=False, default=())

    @classmethod
    def of(cls, values: Sequence[float]) -> "Aggregate":
        n = len(values)
        if n == 0:
            return cls(mean=float("nan"), std=float("nan"), count=0)
        mean = sum(values) / n
        if n == 1:
            std = 0.0
        else:
            variance = sum((v - mean) ** 2 for v in values) / (n - 1)
            std = math.sqrt(variance)
        return cls(mean=mean, std=std, count=n, values=tuple(values))

    def confidence_interval(self) -> tuple[float, float]:
        """Two-sided 95% Student-t confidence interval for the mean.

        Returns ``(mean, mean)`` for a single trial (no spread
        information) and ``(nan, nan)`` for an empty aggregate.
        """
        if self.count == 0:
            return (float("nan"), float("nan"))
        if self.count == 1:
            return (self.mean, self.mean)
        half_width = (
            _t_critical(self.count - 1) * self.std / math.sqrt(self.count)
        )
        return (self.mean - half_width, self.mean + half_width)

    def __format__(self, spec: str) -> str:
        spec = spec or ".2f"
        return f"{self.mean:{spec}}"


@dataclass
class AggregateMetrics:
    """Averages over the trials of one configuration."""

    config_description: str
    trials: list[MergeMetrics]

    @property
    def total_time_s(self) -> Aggregate:
        return Aggregate.of([m.total_time_s for m in self.trials])

    @property
    def success_ratio(self) -> Aggregate:
        return Aggregate.of([m.success_ratio for m in self.trials])

    @property
    def average_concurrency(self) -> Aggregate:
        return Aggregate.of([m.average_concurrency for m in self.trials])

    @property
    def mean_io_ms_per_block(self) -> Aggregate:
        return Aggregate.of([m.mean_io_ms_per_block for m in self.trials])

    @property
    def cpu_stall_s(self) -> Aggregate:
        return Aggregate.of([m.cpu_stall_ms / 1000.0 for m in self.trials])

    def to_dict(self) -> dict:
        """JSON-able snapshot (see :meth:`from_dict`)."""
        return {
            "config_description": self.config_description,
            "trials": [trial.to_dict() for trial in self.trials],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AggregateMetrics":
        """Inverse of :meth:`to_dict`."""
        return cls(
            config_description=data["config_description"],
            trials=[MergeMetrics.from_dict(trial) for trial in data["trials"]],
        )

    def __repr__(self) -> str:
        return (
            f"AggregateMetrics({self.config_description}: "
            f"time={self.total_time_s:.2f}s over {len(self.trials)} trials)"
        )
