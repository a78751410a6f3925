"""The RAM block cache.

Space accounting uses *reserve-at-issue* semantics: a slot is claimed
the moment a fetch is queued at a disk (so concurrent fetches can never
oversubscribe the cache) and released the moment a block is depleted by
the merge.  The cache also keeps per-run bookkeeping -- how many blocks
are cached, how many are in flight, which block is depleted next --
and lets the CPU process wait for the arrival of a specific in-flight
block.

Because all blocks of a run live on one disk and the disk services its
queue FIFO, a run's blocks always arrive in index order; the per-run
state therefore reduces to a handful of counters rather than explicit
block sets.  Invariants are asserted in :meth:`BlockCache.check`
(exercised heavily by the property-based tests).

**Capacity envelope.**  A trial observes the capacity ``C`` only
through :meth:`BlockCache.can_reserve` and :attr:`BlockCache.free`
(the planners' view) and through :meth:`BlockCache.reserve`'s space
check.  Occupancy -- its level, time integral and peak -- never
depends on ``C``.  The cache therefore records the capacities
``[lo, hi)`` under which every observation so far would have come out
the same:

* a passing ``can_reserve(b)`` raises ``lo`` to ``occupied + b``;
* a failing one lowers ``hi`` to ``occupied + b``;
* a read of ``free`` (the greedy budget, the adaptive depth) pins the
  range to ``[C, C + 1)``;
* every ``reserve`` is bounded by the peak occupancy, so the finished
  trial's ``lo`` is at least ``peak_occupancy``.

Any capacity ``C'`` in :meth:`BlockCache.capacity_envelope` replays the
same trajectory: the same draws, the same events, the same metrics,
apart from ``config_description`` (which names ``C``) and
``cache_min_free`` (always ``C - peak_occupancy``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Optional

from repro.obs.events import CACHE_TRACK, EventKind
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.collector import TrialTrace
    from repro.sim.kernel import Simulator


class CacheAccountingError(RuntimeError):
    """An operation violated the cache space or ordering invariants."""


class CapacityEnvelope(NamedTuple):
    """Cache capacities ``lo <= C < hi`` that replay one trajectory.

    ``hi`` is None when no capacity above ``lo`` would change it.
    """

    lo: int
    hi: Optional[int]

    def admits(self, capacity: int) -> bool:
        return self.lo <= capacity and (self.hi is None or capacity < self.hi)


@dataclass
class RunCacheState:
    """Cache bookkeeping for one run.

    Block indices of a run form four contiguous zones, left to right:
    ``[0, next_deplete)`` already merged, ``[next_deplete,
    next_deplete + cached)`` resident, then ``in_flight`` blocks on
    their way from disk, then ``[next_fetch, total_blocks)`` still on
    disk.
    """

    run: int
    total_blocks: int
    cached: int = 0
    in_flight: int = 0
    next_deplete: int = 0
    next_fetch: int = 0

    @property
    def depleted(self) -> int:
        return self.next_deplete

    @property
    def on_disk(self) -> int:
        """Blocks not yet requested from the disk."""
        return self.total_blocks - self.next_fetch

    @property
    def unmerged(self) -> int:
        """Blocks of this run the merge has not consumed yet."""
        return self.total_blocks - self.next_deplete

    @property
    def finished(self) -> bool:
        return self.unmerged == 0

    def check(self) -> None:
        if not (0 <= self.cached and 0 <= self.in_flight):
            raise CacheAccountingError(f"negative counters in run {self.run}: {self}")
        if self.next_deplete + self.cached + self.in_flight != self.next_fetch:
            raise CacheAccountingError(f"zone mismatch in run {self.run}: {self}")
        if self.next_fetch > self.total_blocks:
            raise CacheAccountingError(f"over-fetched run {self.run}: {self}")


class BlockCache:
    """Fixed-capacity block cache shared by all runs."""

    def __init__(
        self,
        sim: "Simulator",
        capacity: int,
        runs: int,
        blocks_per_run: int,
        trace: Optional["TrialTrace"] = None,
    ) -> None:
        if capacity < 1:
            raise CacheAccountingError("cache capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self._free = capacity
        self.runs = [RunCacheState(run, blocks_per_run) for run in range(runs)]
        self._waiters: dict[tuple[int, int], Event] = {}
        # Statistics.
        self._occupancy_weighted_ms = 0.0
        self._last_change_ms = sim.now
        self.peak_occupancy = 0
        self.trace = trace
        # The capacity envelope (module docstring): lo <= capacity < hi.
        self._envelope_lo = 0
        self._envelope_hi: Optional[int] = None

    # ------------------------------------------------------------------
    # Space accounting
    # ------------------------------------------------------------------
    @property
    def free(self) -> int:
        """Free slots; reading them ties the trajectory to this capacity."""
        self._envelope_lo = self.capacity
        self._envelope_hi = self.capacity + 1
        return self._free

    @property
    def min_free(self) -> int:
        """The least free space so far."""
        return self.capacity - self.peak_occupancy

    @property
    def occupied_or_reserved(self) -> int:
        return self.capacity - self._free

    def can_reserve(self, blocks: int) -> bool:
        needed = self.capacity - self._free + blocks
        if needed <= self.capacity:
            if needed > self._envelope_lo:
                self._envelope_lo = needed
            return True
        if self._envelope_hi is None or needed < self._envelope_hi:
            self._envelope_hi = needed
        return False

    def capacity_envelope(self) -> CapacityEnvelope:
        """The capacities that replay the trajectory so far."""
        return CapacityEnvelope(
            max(self._envelope_lo, self.peak_occupancy), self._envelope_hi
        )

    def reserve(self, run: int, blocks: int) -> None:
        """Claim space for ``blocks`` in-flight blocks of ``run``."""
        if blocks < 1:
            raise CacheAccountingError("must reserve at least one block")
        if blocks > self._free:
            raise CacheAccountingError(
                f"reserve({blocks}) exceeds free space {self._free}"
            )
        state = self.runs[run]
        if state.next_fetch + blocks > state.total_blocks:
            raise CacheAccountingError(
                f"run {run} has only {state.on_disk} blocks left on disk, "
                f"cannot fetch {blocks}"
            )
        self._account()
        self._free -= blocks
        state.in_flight += blocks
        state.next_fetch += blocks
        self.peak_occupancy = max(self.peak_occupancy, self.occupied_or_reserved)
        self._note()

    # ------------------------------------------------------------------
    # Block lifecycle
    # ------------------------------------------------------------------
    def preload(self, run: int, blocks: int) -> None:
        """Install the initial resident blocks of ``run`` at no I/O cost."""
        self.reserve(run, blocks)
        state = self.runs[run]
        state.in_flight -= blocks
        state.cached += blocks

    def block_arrived(self, run: int, block_index: int) -> None:
        """A fetched block landed in memory."""
        state = self.runs[run]
        expected = state.next_deplete + state.cached
        if block_index != expected:
            raise CacheAccountingError(
                f"run {run}: block {block_index} arrived out of order "
                f"(expected {expected})"
            )
        if state.in_flight <= 0:
            raise CacheAccountingError(f"run {run}: arrival with nothing in flight")
        self._account()
        state.in_flight -= 1
        state.cached += 1
        waiter = self._waiters.pop((run, block_index), None)
        if waiter is not None:
            waiter.succeed((run, block_index))

    def deplete(self, run: int) -> int:
        """Consume the leading resident block of ``run``; frees one slot.

        Returns the index of the depleted block.
        """
        state = self.runs[run]
        if state.cached < 1:
            raise CacheAccountingError(f"run {run} has no resident block to deplete")
        self._account()
        index = state.next_deplete
        state.cached -= 1
        state.next_deplete += 1
        self._free += 1
        self._note()
        return index

    def arrival_event(self, run: int, block_index: int) -> Event:
        """An event firing when ``block_index`` of ``run`` arrives.

        The block must already be in flight; arrival order per run is
        monotone so at most one distinct waiter per (run, block) exists.
        """
        state = self.runs[run]
        in_flight_range = (
            state.next_deplete + state.cached,
            state.next_deplete + state.cached + state.in_flight,
        )
        if not in_flight_range[0] <= block_index < in_flight_range[1]:
            raise CacheAccountingError(
                f"run {run}: block {block_index} is not in flight "
                f"(in-flight range {in_flight_range})"
            )
        key = (run, block_index)
        event = self._waiters.get(key)
        if event is None:
            event = self.sim.event()
            self._waiters[key] = event
        return event

    # ------------------------------------------------------------------
    # Statistics and invariants
    # ------------------------------------------------------------------
    def _note(self) -> None:
        if self.trace is not None:
            self.trace.instant(
                EventKind.LEVEL, CACHE_TRACK, self.sim.now,
                {"value": self.occupied_or_reserved},
            )

    def _account(self) -> None:
        now = self.sim.now
        self._occupancy_weighted_ms += self.occupied_or_reserved * (
            now - self._last_change_ms
        )
        self._last_change_ms = now

    def mean_occupancy(self) -> float:
        """Time-weighted mean of occupied+reserved slots so far."""
        self._account()
        elapsed = self._last_change_ms
        if elapsed <= 0:
            return float(self.occupied_or_reserved)
        return self._occupancy_weighted_ms / elapsed

    def check(self) -> None:
        """Validate every invariant; raises on violation."""
        total_held = 0
        for state in self.runs:
            state.check()
            total_held += state.cached + state.in_flight
        if total_held + self._free != self.capacity:
            raise CacheAccountingError(
                f"space leak: held {total_held} + free {self._free} != "
                f"capacity {self.capacity}"
            )
        if self._free < 0:
            raise CacheAccountingError("negative free space")
