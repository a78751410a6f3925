"""The sweep engine: cached, pooled, fault-tolerant job execution.

Execution model:

* Every job (one seeded trial of one grid cell) is first looked up in
  the :class:`~repro.sweep.store.ResultStore` by content address — hits
  cost one JSON read and no simulation.
* Misses run on a ``concurrent.futures.ProcessPoolExecutor`` with
  ``workers`` processes (``workers <= 1`` runs inline, which is also
  the zero-dependency fallback).  Each completed trial is persisted to
  the store *immediately*, so killing the sweep at any point loses at
  most the in-flight trials; re-invoking resumes from what finished.
* A failed or timed-out job is retried up to ``retries`` times; a job
  that exhausts its retries is recorded as a failure.  With
  ``allow_partial`` the sweep completes around it, otherwise
  :class:`SweepError` reports every casualty.
* Results are returned in spec expansion order regardless of the order
  workers finish them, so parallel sweeps aggregate bit-identically to
  the serial path.
"""

from __future__ import annotations

import concurrent.futures
import time
from dataclasses import dataclass, field
from typing import Optional

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
from repro.sim.kernel import get_kernel
from repro.sweep.spec import SweepJob, SweepSpec, jobs_for_config
from repro.sweep.store import CampaignManifest, ResultStore
from repro.sweep.worker import execute_batch, execute_job


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


def _batchable(config: SimulationConfig) -> bool:
    """Does ``config``'s kernel execute whole trial groups at once?"""
    try:
        return get_kernel(config.kernel).batch_runner is not None
    except ValueError:  # unregistered kernel: let the per-job path report it
        return False


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
        jobs = spec.jobs()
        manifest = None
        if self.store is not None:
            manifest = CampaignManifest(self.store.root, spec.name)
            manifest.begin(spec.to_dict(), spec.spec_key(), [j.key for j in jobs])
        metrics, stats, failures = self._run_jobs(jobs, manifest)
        cells: list[AggregateMetrics] = []
        for cell_index, config in enumerate(spec.cells()):
            trials = [
                metrics[job.index]
                for job in jobs
                if job.cell == cell_index and metrics[job.index] is not None
            ]
            cells.append(AggregateMetrics(config.describe(), trials))
        return SweepResult(spec=spec, cells=cells, stats=stats, failures=failures)

    def run_config(self, config: SimulationConfig) -> AggregateMetrics:
        """Run one configuration's trials through the engine.

        Drop-in equivalent of
        ``MergeSimulation(config).run()`` — same seeds, same
        aggregation — but cached and parallel.
        """
        jobs = jobs_for_config(config)
        metrics, _, _ = self._run_jobs(jobs, manifest=None)
        return AggregateMetrics(
            config_description=config.describe(),
            trials=[m for m in metrics if m is not None],
        )

    def backend(self):
        """Context manager routing ``MergeSimulation.run`` through this engine.

        While active, every configuration simulated anywhere in the
        process — including inside registered figure/table experiments —
        fans its trials through the worker pool and the result store::

            with engine.backend():
                run_experiments(["fig-3.2a"], scale)
        """
        from repro.api import RunContext

        return RunContext(backend=self.run_config)

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
            if manifest is not None:
                manifest.record(job.key, "done" if outcome != FAILED else "failed")
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
            settle(job, FAILED)

        if pending:
            if self.workers <= 1:
                self._run_inline(pending, complete, fail, stats)
            else:
                self._run_pooled(pending, complete, fail, stats)

        stats.wall_s = time.perf_counter() - start
        self.progress.on_end(stats)
        if failures and not self.allow_partial:
            raise SweepError(failures)
        ordered = [results.get(job.index) for job in jobs]
        return ordered, stats, failures

    def _payload(self, job: SweepJob) -> dict:
        return {"config": config_to_dict(job.config), "trial": job.trial}

    def _run_inline(self, pending, complete, fail, stats: SweepStats) -> None:
        for group in self._cell_groups(pending):
            if len(group) > 1 and _batchable(group[0].config):
                # One worker call per cell: a batch-capable kernel runs
                # the whole trial group through its flattened runner.
                try:
                    payload = {
                        "config": config_to_dict(group[0].config),
                        "trials": [job.trial for job in group],
                    }
                    batch_results = execute_batch(payload)
                except Exception:
                    # Whatever failed (one runaway trial aborts the whole
                    # batch call), the per-job path retries each trial
                    # and attributes failures precisely.
                    stats.retries += 1
                else:
                    for job, result in zip(group, batch_results):
                        complete(job, result)
                    continue
            for job in group:
                attempts = 0
                while True:
                    attempts += 1
                    try:
                        complete(job, execute_job(self._payload(job)))
                        break
                    except Exception as exc:
                        if attempts > self.retries:
                            fail(job, attempts, exc)
                            break
                        stats.retries += 1

    @staticmethod
    def _cell_groups(pending: list[SweepJob]) -> list[list[SweepJob]]:
        """Split ``pending`` into runs of jobs sharing a grid cell.

        Pending jobs arrive in expansion order, so one cell's uncached
        trials are always adjacent; cache hits merely shrink a group.
        """
        groups: list[list[SweepJob]] = []
        for job in pending:
            if groups and groups[-1][0].cell == job.cell:
                groups[-1].append(job)
            else:
                groups.append([job])
        return groups

    def _run_pooled(self, pending, complete, fail, stats: SweepStats) -> None:
        attempts: dict[int, int] = {job.index: 0 for job in pending}
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(self.workers, len(pending))
        ) as pool:
            futures: dict[concurrent.futures.Future, SweepJob] = {}

            def submit(job: SweepJob) -> None:
                attempts[job.index] += 1
                futures[pool.submit(execute_job, self._payload(job))] = job

            for job in pending:
                submit(job)
            while futures:
                done, _ = concurrent.futures.wait(
                    futures, return_when=concurrent.futures.FIRST_COMPLETED
                )
                for future in done:
                    job = futures.pop(future)
                    try:
                        complete(job, future.result())
                    except Exception as exc:
                        if attempts[job.index] <= self.retries:
                            stats.retries += 1
                            submit(job)
                        else:
                            fail(job, attempts[job.index], exc)
