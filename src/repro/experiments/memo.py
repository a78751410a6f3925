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

A configuration with two or more missing seeds runs them in a process
pool, one task per seed, when the memo has more than one worker
(:func:`trial_memo` defaults to the usable CPUs).  A worker only
simulates: it returns the whole pickled
:class:`~repro.core.metrics.MergeMetrics`, envelope included, and the
lookups, the envelope derivation and the storing stay in this process,
in trial order.  So the memo's counts and every report are the same
for any number of workers.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import signal
import sys
from typing import TYPE_CHECKING, Iterator, Optional

from repro import api
from repro.core.metrics import AggregateMetrics, MergeMetrics
from repro.core.parameters import SimulationConfig

if TYPE_CHECKING:  # pragma: no cover
    from concurrent.futures import ProcessPoolExecutor


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
    ``workers`` > 1, a configuration's missing seeds (two or more) run
    in a fork pool started on first use, with no more workers than the
    largest such configuration has missing seeds; :meth:`close` joins
    it.
    """

    def __init__(self, workers: int = 1) -> None:
        self._entries: dict[tuple[SimulationConfig, int], list[MergeMetrics]] = {}
        self.simulated = 0
        self.exact = 0
        self.derived = 0
        self.workers = workers
        self._pool: Optional["ProcessPoolExecutor"] = None
        self._pool_size = 0

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
        size = min(self.workers, len(missing))
        if size < 2:
            return api.run_trials([config] * len(missing), trials=missing)
        if self._pool_size < size:
            # A fork pool cannot grow, so a larger one replaces it; a
            # worker more than a configuration has seeds would idle.
            self.close()
            # Imported here: a report that never pools never pays for it.
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            # Fork, not spawn: a spawned worker re-imports repro, which
            # costs more than a quick figure's trials.  The executor
            # forks its workers before it starts its own threads.
            self._pool = ProcessPoolExecutor(
                size,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_start_worker,
            )
            self._pool_size = size
        # Resolved here, under this process's ambient options, as
        # run_trials would resolve it; the worker runs it under none.
        resolved = api.resolve_config(config)
        futures = [
            self._pool.submit(_run_trial, resolved, trial) for trial in missing
        ]
        try:
            # In trial order, so the first failing trial raises, as it
            # would in a serial run.
            return [future.result() for future in futures]
        finally:
            for future in futures:
                future.cancel()

    def close(self) -> None:
        """Join the pool, if one was started; queued tasks are dropped."""
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)
            self._pool = None
            self._pool_size = 0

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


def _start_worker() -> None:
    """Pool initializer.  Ctrl-C is left to the parent, which cancels
    the queue and joins the pool.  A parent killed before it can join
    leaves the task queue open, so a watcher thread ends the worker
    when the parent is gone."""
    import multiprocessing
    import threading

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    parent = multiprocessing.parent_process()

    def exit_with_parent() -> None:
        parent.join()
        os._exit(1)

    threading.Thread(target=exit_with_parent, daemon=True).start()


def _run_trial(config: SimulationConfig, trial: int) -> MergeMetrics:
    """A pool task: one trial of an already-resolved ``config``.

    A forked worker keeps the ambient options in force when it was
    forked, so they are cleared for the task.
    """
    with api.configure(fault_plan=None, kernel=None, trace=None):
        return api.run_trials([config], trials=[trial])[0]


def _default_workers() -> int:
    """The CPUs this process may run on; 1 where fork is unavailable."""
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


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
    memo = TrialMemo(_default_workers() if workers is None else workers)
    try:
        with api.RunContext(backend=memo):
            yield memo
    finally:
        memo.close()
    print(memo.summary(), file=sys.stderr)
