"""The sweep engine: cached, pooled, fault-tolerant job execution.

Execution model:

* Every job (one seeded trial of one grid cell) is first looked up in
  the :class:`~repro.sweep.store.ResultStore` by content address — hits
  cost one JSON read and no simulation.
* Misses run through :func:`~repro.sweep.worker.execute_cell`: inline
  (``workers <= 1``, also the zero-dependency fallback) one call per
  grid cell, or on a ``concurrent.futures.ProcessPoolExecutor`` with
  ``workers`` processes one call per job.  Each completed trial is
  persisted to the store *immediately*, so killing the sweep at any
  point loses at most the in-flight trials; re-invoking resumes from
  what finished.
* ``execute_cell`` retries a failed trial up to ``retries`` times; a
  job that exhausts its retries is recorded as a failure and journaled
  in the campaign manifest.  With ``allow_partial`` the sweep
  completes around it, otherwise :class:`SweepError` reports every
  casualty.  A broken pool is not a job failure: it raises.
* Results are returned in spec expansion order regardless of the order
  workers finish them, so parallel sweeps aggregate bit-identically to
  the serial path.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import time
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.core.metrics import AggregateMetrics, MergeMetrics
from repro.core.parameters import SimulationConfig
from repro.sweep.keys import config_to_dict
from repro.sweep.progress import (
    CACHED,
    COMPUTED,
    FAILED,
    NullProgress,
    ProgressListener,
    SweepStats,
)
from repro.sweep.spec import (
    SweepJob,
    SweepSpec,
    cells_key,
    jobs_for_cells,
    jobs_for_config,
)
from repro.sweep.store import CampaignManifest, ResultStore
# execute_job is not called here: benchmark/spans.py wraps it on every
# module that holds it, and its tests look it up on this one.
from repro.sweep.worker import (  # noqa: F401
    CellResult,
    cell_groups,
    execute_cell,
    execute_job,
)


@dataclass(frozen=True)
class JobFailure:
    """One job that exhausted its retry budget."""

    index: int
    key: str
    description: str
    attempts: int
    error: str


class SweepError(RuntimeError):
    """Raised when jobs fail and ``allow_partial`` is off."""

    def __init__(self, failures: list[JobFailure]) -> None:
        self.failures = failures
        lines = "; ".join(
            f"{f.description} ({f.error})" for f in failures[:3]
        )
        more = f" (+{len(failures) - 3} more)" if len(failures) > 3 else ""
        super().__init__(f"{len(failures)} sweep job(s) failed: {lines}{more}")


@dataclass
class SweepResult:
    """Everything one :meth:`SweepEngine.run_spec` call produced."""

    spec: SweepSpec
    cells: list[AggregateMetrics]
    stats: SweepStats
    failures: list[JobFailure] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "stats": self.stats.to_dict(),
            "failures": [
                {
                    "index": f.index,
                    "key": f.key,
                    "description": f.description,
                    "attempts": f.attempts,
                    "error": f.error,
                }
                for f in self.failures
            ],
            "cells": [cell.to_dict() for cell in self.cells],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SweepResult":
        """Inverse of :meth:`to_dict`: reload an exported sweep result."""
        return cls(
            spec=SweepSpec.from_dict(data["spec"]),
            cells=[
                AggregateMetrics.from_dict(cell) for cell in data["cells"]
            ],
            stats=SweepStats.from_dict(data["stats"]),
            failures=[
                JobFailure(
                    index=failure["index"],
                    key=failure["key"],
                    description=failure["description"],
                    attempts=failure["attempts"],
                    error=failure["error"],
                )
                for failure in data["failures"]
            ],
        )


class SweepEngine:
    """Executes sweep jobs with caching, parallelism, and retries.

    Args:
        store: persistent result cache; ``None`` disables caching.
        workers: pool size; ``<= 1`` executes inline (deterministic,
            no subprocesses).
        retries: extra attempts per failed job.
        progress: observer for begin/job/end events.
        allow_partial: tolerate exhausted jobs (their trials are
            dropped from the aggregation) instead of raising.
    """

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        workers: int = 1,
        retries: int = 1,
        progress: Optional[ProgressListener] = None,
        allow_partial: bool = False,
    ) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.store = store
        self.workers = workers
        self.retries = retries
        self.progress = progress or NullProgress()
        self.allow_partial = allow_partial

    # -- public entry points ------------------------------------------------

    def run_spec(self, spec: SweepSpec) -> SweepResult:
        """Run a whole campaign; cells aggregate in expansion order."""
        configs = spec.cells()
        jobs = jobs_for_cells(configs)
        manifest = None
        if self.store is not None:
            manifest = CampaignManifest(self.store.root, spec.name)
            manifest.begin(spec.to_dict(), cells_key(configs), [j.key for j in jobs])
        metrics, stats, failures = self._run_jobs(jobs, manifest)
        trials: list[list[MergeMetrics]] = [[] for _ in configs]
        for job, result in zip(jobs, metrics):
            if result is not None:
                trials[job.cell].append(result)
        cells = [
            AggregateMetrics(config.describe(), cell_trials)
            for config, cell_trials in zip(configs, trials)
        ]
        return SweepResult(spec=spec, cells=cells, stats=stats, failures=failures)

    def run_config(self, config: SimulationConfig) -> AggregateMetrics:
        """Run one configuration's trials through the engine.

        Equivalent of ``MergeSimulation(config).run()`` — same seeds,
        same aggregation — but cached and parallel.  No report path
        calls it; it stays as the one-configuration entry point that
        ``benchmark/spans.py`` instruments alongside :meth:`run_spec`.
        """
        jobs = jobs_for_config(config)
        metrics, _, _ = self._run_jobs(jobs, manifest=None)
        return AggregateMetrics(
            config_description=config.describe(),
            trials=[m for m in metrics if m is not None],
        )

    # -- internals ----------------------------------------------------------

    def _run_jobs(
        self,
        jobs: list[SweepJob],
        manifest: Optional[CampaignManifest],
    ) -> tuple[list[Optional[MergeMetrics]], SweepStats, list[JobFailure]]:
        stats = SweepStats(total=len(jobs))
        start = time.perf_counter()
        results: dict[int, MergeMetrics] = {}
        failures: list[JobFailure] = []
        self.progress.on_begin(stats)

        def settle(job: SweepJob, outcome: str) -> None:
            stats.count(outcome)
            stats.wall_s = time.perf_counter() - start
            self.progress.on_job(job, outcome, stats)

        pending: list[SweepJob] = []
        for job in jobs:
            cached = self.store.get(job.key) if self.store is not None else None
            if cached is not None:
                results[job.index] = cached
                settle(job, CACHED)
            else:
                pending.append(job)

        def complete(job: SweepJob, payload: dict) -> None:
            metrics = MergeMetrics.from_dict(payload["metrics"])
            results[job.index] = metrics
            stats.sim_s += payload.get("elapsed_s") or 0.0
            reason = payload.get("fallback")
            if reason:
                stats.fallbacks[reason] = stats.fallbacks.get(reason, 0) + 1
            if self.store is not None:
                self.store.put(
                    job.key,
                    metrics,
                    config=config_to_dict(job.config),
                    seed=job.seed,
                    elapsed_s=payload.get("elapsed_s"),
                )
            settle(job, COMPUTED)

        def fail(job: SweepJob, attempts: int, error: BaseException) -> None:
            failures.append(
                JobFailure(
                    index=job.index,
                    key=job.key,
                    description=job.describe(),
                    attempts=attempts,
                    error=f"{type(error).__name__}: {error}",
                )
            )
            if manifest is not None:
                manifest.record(job.key, "failed")
            settle(job, FAILED)

        attempts = self.retries + 1
        # closing(): an error settling a job shuts the pool down now,
        # not whenever its traceback lets the generator go.
        with contextlib.closing(self._cell_results(pending, attempts)) as cells:
            for group, (outcomes, retries) in cells:
                stats.retries += retries
                for job, outcome in zip(group, outcomes):
                    if isinstance(outcome, Exception):
                        fail(job, attempts, outcome)
                    else:
                        complete(job, outcome)

        stats.wall_s = time.perf_counter() - start
        self.progress.on_end(stats)
        failures.sort(key=lambda failure: failure.index)  # pool: any order
        if failures and not self.allow_partial:
            raise SweepError(failures)
        ordered = [results.get(job.index) for job in jobs]
        return ordered, stats, failures

    def _cell_results(
        self, pending: list[SweepJob], attempts: int
    ) -> Iterator[tuple[list[SweepJob], CellResult]]:
        """Run ``pending`` through :func:`execute_cell`; yield each group
        of jobs with its result.

        Inline, a group is one grid cell's adjacent jobs, run as one
        batch.  Pooled, a group is one job, yielded as it completes.  A
        failure of the pool itself, such as a worker process that dies,
        raises out of the sweep (``BrokenProcessPool``); trials already
        stored stay stored.
        """
        if not pending:
            return
        if self.workers <= 1:
            for group in cell_groups(pending, lambda job: job.cell):
                yield group, execute_cell(
                    config_to_dict(group[0].config),
                    [job.trial for job in group],
                    attempts=attempts,
                )
            return
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(self.workers, len(pending))
        ) as pool:
            futures = {
                pool.submit(
                    execute_cell,
                    config_to_dict(job.config),
                    [job.trial],
                    attempts=attempts,
                ): job
                for job in pending
            }
            for future in concurrent.futures.as_completed(futures):
                yield [futures[future]], future.result()
