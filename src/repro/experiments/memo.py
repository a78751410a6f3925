"""A trial memo for one report: each trajectory is simulated once.

Experiments simulate the same trial more than once: an ablation repeats
a figure's configuration, and a cache-size sweep replays one trajectory
at every cache too large to refuse a reservation.  :class:`TrialMemo`
is a :class:`~repro.api.RunContext` backend that answers both from the
trials it already ran:

* an **exact repeat** -- the same configuration and seed;
* a **capacity-derived** trial -- the same configuration and seed at a
  cache capacity inside the stored trial's
  :attr:`~repro.core.metrics.MergeMetrics.capacity_envelope`.  Only
  ``config_description`` and ``cache_min_free`` differ from the stored
  trial (see :mod:`repro.core.cache`).

Every answer is a fresh copy, ``drive_stats`` included, so a caller
that mutates a result cannot change another.  Only trials that ran
natively (``fallback is None``) are stored; fallbacks re-run every
time.  :func:`trial_memo` installs one memo for the length of a
``with`` block -- :func:`~repro.experiments.runner.run_experiments`
and :func:`~repro.experiments.validation.judge_claims` use it when no
engine, backend or trace is installed -- and then reports its counts
on stderr.
"""

from __future__ import annotations

import contextlib
import dataclasses
import sys
from typing import Iterator, Optional

from repro import api
from repro.core.metrics import AggregateMetrics, MergeMetrics
from repro.core.parameters import SimulationConfig


def at_capacity(metrics: MergeMetrics, config: SimulationConfig) -> MergeMetrics:
    """A fresh copy of ``metrics`` as the same trajectory under
    ``config``'s cache capacity, which its envelope must admit."""
    return dataclasses.replace(
        metrics,
        config_description=config.describe(),
        cache_min_free=(
            config.resolved_cache_capacity - metrics.cache_peak_occupancy
        ),
        drive_stats=[
            dataclasses.replace(
                stats,
                retry_histogram=dict(stats.retry_histogram),
                samples=dict(stats.samples),
            )
            for stats in metrics.drive_stats
        ],
    )


class TrialMemo:
    """Simulation backend that runs each distinct trajectory once.

    A stored trial is keyed by its configuration with the capacity,
    trial count and base seed taken out, plus its seed.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple[SimulationConfig, int], list[MergeMetrics]] = {}
        self.simulated = 0
        self.exact = 0
        self.derived = 0

    def __call__(self, config: SimulationConfig) -> AggregateMetrics:
        capacity = config.resolved_cache_capacity
        shape = dataclasses.replace(
            config, cache_capacity=None, trials=1, base_seed=0
        )
        trials: list[Optional[MergeMetrics]] = []
        missing: list[int] = []
        for trial in range(config.trials):
            stored = self._lookup((shape, config.base_seed + trial), capacity)
            if stored is None:
                missing.append(trial)
                trials.append(None)
            else:
                trials.append(at_capacity(stored, config))
        if missing:
            fresh = api.run_trials([config] * len(missing), trials=missing)
            self.simulated += len(missing)
            for trial, metrics in zip(missing, fresh):
                trials[trial] = metrics
                if metrics.fallback is None:
                    self._entries.setdefault(
                        (shape, config.base_seed + trial), []
                    ).append(at_capacity(metrics, config))
        return AggregateMetrics(
            config_description=config.describe(), trials=trials
        )

    def _lookup(
        self, key: tuple[SimulationConfig, int], capacity: int
    ) -> Optional[MergeMetrics]:
        for stored in self._entries.get(key, ()):
            if stored.capacity_envelope.admits(capacity):
                # min_free + peak is the capacity it was simulated at.
                simulated_at = stored.cache_min_free + stored.cache_peak_occupancy
                if simulated_at == capacity:
                    self.exact += 1
                else:
                    self.derived += 1
                return stored
        return None

    def summary(self) -> str:
        return (
            f"[trial memo: {self.simulated} simulated, {self.exact} exact "
            f"repeats, {self.derived} derived by capacity]"
        )


@contextlib.contextmanager
def trial_memo() -> Iterator[Optional[TrialMemo]]:
    """Install a fresh :class:`TrialMemo` as the simulation backend.

    Yields None and installs nothing when a backend (a sweep engine)
    or a trace session is already ambient: an engine has its own
    result store, and a trace must see every trial run.  On a clean
    exit the memo's counts go to stderr as one line.
    """
    if api.current_backend() is not None or api.current_trace() is not None:
        yield None
        return
    memo = TrialMemo()
    with api.RunContext(backend=memo):
        yield memo
    print(memo.summary(), file=sys.stderr)
