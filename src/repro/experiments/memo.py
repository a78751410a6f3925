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
uses it unless a backend or trace is already installed, and
``repro validate`` around both its tiers -- and then reports its
counts on stderr.

With more than one worker, a configuration's two or more missing seeds
run on the worker pool (:mod:`repro.sweep.pool`), one task per seed.  A
worker returns the whole :class:`~repro.core.metrics.MergeMetrics`;
lookups, derivation and storing stay here, in trial order, so counts
and reports are the same for any number of workers.
"""

from __future__ import annotations

import contextlib
import dataclasses
import sys
from typing import Iterator, Optional

from repro import api
from repro.core.metrics import AggregateMetrics, MergeMetrics
from repro.core.parameters import SimulationConfig
from repro.sweep.pool import WorkerPool, default_workers


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
    trial count and base seed taken out, plus its seed.  With
    ``workers`` > 1, missing seeds run on a worker pool that
    :meth:`close` joins.
    """

    def __init__(self, workers: int = 1) -> None:
        self._entries: dict[tuple[SimulationConfig, int], list[MergeMetrics]] = {}
        self.simulated = 0
        self.exact = 0
        self.derived = 0
        self._pool = WorkerPool(workers)

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
            fresh = self._simulate(config, missing)
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

    def _simulate(
        self, config: SimulationConfig, missing: list[int]
    ) -> list[MergeMetrics]:
        """Run ``missing`` trials of ``config``, in order; in the pool
        when there are two or more and more than one worker."""
        if min(self._pool.workers, len(missing)) < 2:
            return api.run_trials([config] * len(missing), trials=missing)
        # Resolved under this process's ambient options; the worker runs
        # it under none.  In trial order, so the first failing trial
        # raises, as it would in a serial run.
        calls = [(api.resolve_config(config), trial) for trial in missing]
        pooled = self._pool.results(_run_trial, calls, in_order=True)
        return [metrics for _, metrics in pooled]

    def close(self) -> None:
        """Join the pool, if one was started; queued tasks are dropped."""
        self._pool.close()

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


def _run_trial(config: SimulationConfig, trial: int) -> MergeMetrics:
    """A pool task: one trial of an already-resolved ``config``."""
    return api.run_trials([config], trials=[trial])[0]


@contextlib.contextmanager
def trial_memo(workers: Optional[int] = None) -> Iterator[Optional[TrialMemo]]:
    """Install a fresh :class:`TrialMemo` as the simulation backend.

    The memo runs a configuration's missing seeds on ``workers``
    processes (default: the CPUs this process may run on; ``1`` runs
    them here, one batch per configuration).  The pool is joined when
    the block exits, also on an exception.

    Yields None and installs nothing when a backend (an outer memo)
    or a trace session is already ambient: the outer backend answers
    every simulation, and a trace must see every trial run, so traced
    runs stay serial.  On a clean exit the memo's counts go to stderr
    as one line.
    """
    if api.current_backend() is not None or api.current_trace() is not None:
        yield None
        return
    memo = TrialMemo(default_workers() if workers is None else workers)
    with contextlib.closing(memo), api.RunContext(backend=memo):
        yield memo
    print(memo.summary(), file=sys.stderr)
