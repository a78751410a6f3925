"""Streaming campaign aggregation: partial results while workers run.

The single-host :class:`~repro.sweep.engine.SweepEngine` only builds
its :class:`~repro.core.metrics.AggregateMetrics` when the whole sweep
returns.  A distributed campaign instead settles jobs one streamed
``complete`` at a time, in whatever order leases land — so the
aggregator keeps a per-job result map and can produce, at any moment,

* a cheap **snapshot** (completed / failed / in-flight counts plus the
  partial per-cell aggregates built from whatever trials have landed),
  which is what ``GET /v1/campaigns/<name>`` answers mid-run, and
* the **final result**, ordered by trial index within each cell —
  exactly the trial order the single-host engine produces, which is
  what makes the two paths' aggregates comparable.
"""

from __future__ import annotations

from repro.core.metrics import AggregateMetrics, MergeMetrics
from repro.sweep.spec import SweepSpec, cells_key, jobs_for_cells


class CampaignAggregator:
    """Per-job results of one campaign, aggregated on demand."""

    def __init__(self, spec: SweepSpec) -> None:
        self.spec = spec
        self._configs = spec.cells()
        self.jobs = jobs_for_cells(self._configs)
        self.spec_key = cells_key(self._configs)
        self._by_index = {job.index: job for job in self.jobs}
        self._results: dict[int, MergeMetrics] = {}
        self._failures: dict[int, str] = {}
        self.cached = 0  # jobs settled from the store at startup

    # -- recording -----------------------------------------------------------

    def record(
        self, index: int, metrics: MergeMetrics, *, cached: bool = False
    ) -> None:
        """Settle job ``index`` with its metrics (idempotent)."""
        if index not in self._by_index:
            raise KeyError(f"campaign has no job index {index}")
        fresh = index not in self._results
        self._results[index] = metrics
        self._failures.pop(index, None)
        if cached and fresh:
            self.cached += 1

    def record_failure(self, index: int, error: str) -> None:
        """Settle job ``index`` as permanently failed."""
        if index not in self._by_index:
            raise KeyError(f"campaign has no job index {index}")
        if index not in self._results:
            self._failures[index] = error

    # -- queries -------------------------------------------------------------

    @property
    def total(self) -> int:
        return len(self.jobs)

    @property
    def completed(self) -> int:
        return len(self._results)

    @property
    def failed(self) -> int:
        return len(self._failures)

    @property
    def settled(self) -> int:
        return self.completed + self.failed

    @property
    def in_flight(self) -> int:
        return self.total - self.settled

    def is_complete(self) -> bool:
        return self.settled == self.total

    def failures(self) -> dict[int, str]:
        return dict(self._failures)

    def cell_aggregates(self) -> list[AggregateMetrics]:
        """Per-cell aggregates over the trials that have landed so far.

        Trials appear in trial-index order within each cell, matching
        the single-host engine's ordering regardless of the order
        shards completed in.
        """
        per_cell: dict[int, list] = {
            cell: [] for cell in range(len(self._configs))
        }
        for job in self.jobs:
            metrics = self._results.get(job.index)
            if metrics is not None:
                per_cell[job.cell].append((job.trial, metrics))
        aggregates = []
        for cell, config in enumerate(self._configs):
            trials = [m for _, m in sorted(per_cell[cell])]
            aggregates.append(AggregateMetrics(config.describe(), trials))
        return aggregates

    def snapshot(self, *, include_cells: bool = True) -> dict:
        """The JSON body of ``GET /v1/campaigns/<name>`` (partial OK)."""
        body: dict = {
            "campaign": self.spec.name,
            "spec_key": self.spec_key,
            "jobs": {
                "total": self.total,
                "completed": self.completed,
                "cached": self.cached,
                "failed": self.failed,
                "in_flight": self.in_flight,
            },
            "complete": self.is_complete(),
        }
        if self._failures:
            body["failures"] = {
                str(index): error
                for index, error in sorted(self._failures.items())
            }
        if include_cells:
            body["cells"] = [
                aggregate.to_dict() for aggregate in self.cell_aggregates()
            ]
        return body

    def result(self) -> list[AggregateMetrics]:
        """Final per-cell aggregates (call once :meth:`is_complete`)."""
        return self.cell_aggregates()
