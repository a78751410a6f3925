"""Fetch planning: the paper's two prefetching strategies.

A *planner* turns a demand situation ("run ``j`` has exhausted its
cached blocks") into a :class:`FetchPlan` -- the list of ``(run,
blocks)`` groups to fetch -- given a read-only view of the system
state.  Planners are pure decision logic; reserving cache space and
queueing requests at drives is the merge simulator's job.

* :class:`NoPrefetchPlanner` -- the Kwan-Baer baseline: one demand
  block.
* :class:`IntraRunPlanner` -- ``N`` contiguous blocks of the demand run.
* :class:`InterRunPlanner` -- the demand group plus an ``N``-block group
  on every other disk, gated by the almost-full-cache policy.

Victim selection (which run to prefetch on a non-demand disk) is
pluggable; ``RANDOM`` is the paper's policy, the others reproduce the
heuristics the authors examined in the companion thesis.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Protocol, Sequence

from repro.core.cache import BlockCache
from repro.core.parameters import CachePolicy, VictimSelector
from repro.disks.layout import RunLayout


@dataclass(slots=True)
class FetchGroup:
    """One contiguous fetch: ``count`` blocks of ``run``."""

    run: int
    count: int
    demand: bool = False

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("fetch group must cover at least one block")


@dataclass(slots=True)
class FetchPlan:
    """The planner's decision for one demand situation.

    Attributes:
        groups: fetch groups, demand group first.
        full_prefetch: True when the plan is a complete inter-run
            prefetch (``N`` blocks on all ``D`` disks); drives the
            success-ratio statistic.
        counts_as_decision: False for strategies where the success
            ratio is not meaningful (the paper defines it only for
            inter-run prefetching).
    """

    groups: tuple[FetchGroup, ...]
    full_prefetch: bool = False
    counts_as_decision: bool = False

    @property
    def total_blocks(self) -> int:
        return sum(group.count for group in self.groups)


class SystemView(Protocol):
    """What a planner may observe (duck-typed by the simulator)."""

    layout: RunLayout
    cache: BlockCache

    def head_cylinder(self, disk: int) -> int: ...

    def drive_degraded(self, disk: int) -> bool:
        """Degraded-mode signal (fault injection); optional on views.

        Planners treat views without the method as "every drive
        healthy" -- the fault-free behaviour.
        """
        ...


class VictimChooser:
    """Chooses the run to prefetch on one non-demand disk."""

    def __init__(self, selector: VictimSelector, rng: random.Random) -> None:
        self.selector = selector
        self.rng = rng
        self._round_robin_cursor: dict[int, int] = {}

    def choose(
        self,
        view: SystemView,
        disk: int,
        candidates: Sequence[int],
    ) -> int:
        """Pick one of ``candidates`` (runs on ``disk`` with blocks on disk)."""
        if not candidates:
            raise ValueError("no candidate runs to choose from")
        if self.selector is VictimSelector.RANDOM:
            # randrange(n) is _randbelow(n) for n > 0: the same draw
            # without randrange's argument handling.
            return candidates[self.rng._randbelow(len(candidates))]
        if self.selector is VictimSelector.NEAREST_HEAD:
            head = view.head_cylinder(disk)
            return min(
                candidates,
                key=lambda run: abs(
                    view.layout.cylinder_of(run, view.cache.runs[run].next_fetch)
                    - head
                ),
            )
        if self.selector is VictimSelector.ROUND_ROBIN:
            cursor = self._round_robin_cursor.get(disk, 0)
            choice = candidates[cursor % len(candidates)]
            self._round_robin_cursor[disk] = cursor + 1
            return choice
        if self.selector is VictimSelector.MOST_DEPLETED:
            # The run closest to stalling the merge: fewest blocks
            # resident or already on the way.
            return min(
                candidates,
                key=lambda run: (
                    view.cache.runs[run].cached + view.cache.runs[run].in_flight,
                    run,
                ),
            )
        raise ValueError(f"unknown selector {self.selector}")


class FetchPlanner:
    """Base planner: subclasses implement :meth:`plan`."""

    def plan(self, view: SystemView, demand_run: int) -> FetchPlan:
        raise NotImplementedError


class NoPrefetchPlanner(FetchPlanner):
    """Demand-fetch exactly one block (the single-disk baseline of

    Kwan & Baer, and its multi-disk analogue)."""

    def plan(self, view: SystemView, demand_run: int) -> FetchPlan:
        return FetchPlan(groups=(FetchGroup(demand_run, 1, demand=True),))


class IntraRunPlanner(FetchPlanner):
    """Fetch ``N`` contiguous blocks of the demand run ("Demand Run

    Only").  The cache is sized ``k*N`` so space is always available --
    at least ``N`` depletions of the demand run preceded this fetch."""

    def __init__(self, depth: int) -> None:
        if depth < 1:
            raise ValueError("prefetch depth must be >= 1")
        self.depth = depth

    def plan(self, view: SystemView, demand_run: int) -> FetchPlan:
        state = view.cache.runs[demand_run]
        count = min(self.depth, state.on_disk)
        return FetchPlan(groups=(FetchGroup(demand_run, count, demand=True),))


class InterRunPlanner(FetchPlanner):
    """The paper's inter-run strategy ("All Disks One Run").

    On a demand fetch for run ``j``: if the cache can hold ``D*N``
    blocks, fetch ``N`` blocks of ``j`` plus ``N`` blocks of one run on
    each other disk; otherwise (conservative policy) fetch only the
    demand block.  The greedy variant instead fills whatever space is
    free, demand group first, then other disks in random order.
    """

    def __init__(
        self,
        depth: int,
        num_disks: int,
        policy: CachePolicy,
        chooser: VictimChooser,
        rng: random.Random,
        adaptive: bool = False,
    ) -> None:
        if depth < 1:
            raise ValueError("prefetch depth must be >= 1")
        self.depth = depth
        self.num_disks = num_disks
        self.policy = policy
        self.chooser = chooser
        self.rng = rng
        self.adaptive = adaptive
        # Per disk, in runs_on_disk order: the runs with blocks left on
        # disk (the victim candidates), built on the first full plan and
        # pruned as each run's last block is planned.
        self._live: Optional[list[list[int]]] = None

    def plan(self, view: SystemView, demand_run: int) -> FetchPlan:
        if self.adaptive:
            return self._adaptive_plan(view, demand_run)
        required = self.depth * self.num_disks
        if view.cache.can_reserve(required):
            groups, skipped = self._full_plan(view, demand_run, budget=None)
            return FetchPlan(
                groups=groups,
                full_prefetch=skipped == 0,
                counts_as_decision=True,
            )
        if self.policy is CachePolicy.CONSERVATIVE:
            return self._demand_block_plan(view, demand_run)
        # Greedy: spend all free space, demand group first.
        groups, _ = self._full_plan(view, demand_run, budget=view.cache.free)
        return FetchPlan(groups=groups, full_prefetch=False, counts_as_decision=True)

    def _adaptive_plan(self, view: SystemView, demand_run: int) -> FetchPlan:
        """Size the fetch depth to the free cache.

        Instead of gambling on the full ``D*N`` fitting (conservative)
        or filling space unevenly (greedy), fetch equal groups of
        ``N' = clamp(free // D, 1, N)`` blocks on every disk: all disks
        stay busy at whatever amortization the cache currently affords.
        """
        depth_now = min(self.depth, max(1, view.cache.free // self.num_disks))
        if view.cache.can_reserve(depth_now * self.num_disks):
            groups, skipped = self._full_plan(
                view, demand_run, budget=None, depth=depth_now
            )
            return FetchPlan(
                groups=groups,
                full_prefetch=depth_now == self.depth and skipped == 0,
                counts_as_decision=True,
            )
        return self._demand_block_plan(view, demand_run)

    def _demand_block_plan(
        self, view: SystemView, demand_run: int
    ) -> FetchPlan:
        """Fetch only the demand block (the cache cannot take more)."""
        self._planned(view, demand_run, 1)
        return FetchPlan(
            groups=(FetchGroup(demand_run, 1, demand=True),),
            full_prefetch=False,
            counts_as_decision=True,
        )

    def _planned(self, view: SystemView, run: int, count: int) -> None:
        """Note a planned fetch: a run whose last blocks it takes
        leaves its disk's victim candidates."""
        if self._live is not None and count == view.cache.runs[run].on_disk:
            self._live[view.layout.disk_of_run(run)].remove(run)

    def _full_plan(
        self,
        view: SystemView,
        demand_run: int,
        budget: Optional[int],
        depth: Optional[int] = None,
    ) -> tuple[tuple[FetchGroup, ...], int]:
        """Build the fetch groups; returns ``(groups, degraded_skips)``.

        Degraded drives (fault injection's flapping / fail-slow /
        in-outage signal) are dropped from prefetch target selection:
        spending prefetch depth on a drive that cannot deliver soon
        only ties up cache space the healthy drives could use.  The
        demand disk is never skipped -- the merge needs that block
        regardless of drive health.
        """
        depth = self.depth if depth is None else depth
        runs = view.cache.runs
        live = self._live
        if live is None:
            live = self._live = [
                [
                    run
                    for run in view.layout.runs_on_disk(disk)
                    if runs[run].on_disk > 0
                ]
                for disk in range(self.num_disks)
            ]
        remaining = budget if budget is not None else float("inf")
        demand_count = min(depth, runs[demand_run].on_disk, remaining)
        demand_count = max(int(demand_count), 1)
        self._planned(view, demand_run, demand_count)
        groups = [FetchGroup(demand_run, demand_count, demand=True)]
        remaining -= demand_count

        demand_disk = view.layout.disk_of_run(demand_run)
        other_disks = [d for d in range(self.num_disks) if d != demand_disk]
        if budget is not None:
            self.rng.shuffle(other_disks)
        is_degraded = getattr(view, "drive_degraded", None)
        skipped = 0
        for disk in other_disks:
            if remaining < 1:
                break
            if is_degraded is not None and is_degraded(disk):
                skipped += 1
                continue
            candidates = live[disk]
            if not candidates:
                continue
            victim = self.chooser.choose(view, disk, candidates)
            on_disk = runs[victim].on_disk
            count = int(min(depth, on_disk, remaining))
            if count < 1:
                break
            if count == on_disk:
                candidates.remove(victim)
            groups.append(FetchGroup(victim, count))
            remaining -= count
        return tuple(groups), skipped


def build_planner(
    strategy,
    depth: int,
    num_disks: int,
    policy: CachePolicy,
    selector: VictimSelector,
    rng: random.Random,
    adaptive: bool = False,
) -> FetchPlanner:
    """Construct the planner matching a configuration."""
    from repro.core.parameters import PrefetchStrategy

    if strategy is PrefetchStrategy.NONE:
        return NoPrefetchPlanner()
    if strategy is PrefetchStrategy.INTRA_RUN:
        return IntraRunPlanner(depth)
    if strategy is PrefetchStrategy.INTER_RUN:
        chooser = VictimChooser(selector, rng)
        return InterRunPlanner(
            depth, num_disks, policy, chooser, rng, adaptive=adaptive
        )
    raise ValueError(f"unknown strategy {strategy}")
