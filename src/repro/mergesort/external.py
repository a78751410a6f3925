"""The full external-mergesort pipeline.

Combines run formation and (possibly multi-pass) k-way merging into a
complete sort, and connects the *final* merge pass to the I/O simulator:
its real block-depletion trace can replace the paper's random-depletion
model (``trace_driven_metrics``), which is how we validate that model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro import api
from repro.core.metrics import MergeMetrics
from repro.core.parameters import SimulationConfig
from repro.mergesort.merge import BlockedRun, MergeResult, merge_runs
from repro.mergesort.records import RECORDS_PER_BLOCK, Record, verify_sorted_permutation
from repro.mergesort.runs import form_runs_memory_sort, form_runs_replacement_selection


@dataclass
class SortStatistics:
    """What one external sort did."""

    records: int
    initial_runs: int
    merge_passes: int
    final_fan_in: int
    output: list[Record] = field(repr=False)
    final_merge: MergeResult = field(repr=False)

    @property
    def final_depletion_trace(self) -> list[int]:
        """Block-depletion order of the last merge pass."""
        return self.final_merge.depletion_trace


class ExternalMergesort:
    """A configurable external mergesort.

    Attributes:
        memory_records: records that fit in memory during run formation.
        records_per_block: block packing (64 in the paper).
        max_fan_in: merge order limit; more runs than this triggers
            extra merge passes.
        replacement_selection: use replacement selection (runs average
            twice the memory size, variable length) instead of
            memory-load sorting (equal-length runs, the paper's model).
    """

    def __init__(
        self,
        memory_records: int,
        records_per_block: int = RECORDS_PER_BLOCK,
        max_fan_in: Optional[int] = None,
        replacement_selection: bool = False,
    ) -> None:
        if memory_records < 1:
            raise ValueError("memory must hold at least one record")
        if records_per_block < 1:
            raise ValueError("records_per_block must be >= 1")
        if max_fan_in is not None and max_fan_in < 2:
            raise ValueError("max_fan_in must be >= 2")
        self.memory_records = memory_records
        self.records_per_block = records_per_block
        self.max_fan_in = max_fan_in
        self.replacement_selection = replacement_selection

    def sort(self, records: Sequence[Record], verify: bool = True) -> SortStatistics:
        """Sort ``records``; returns output plus pipeline statistics."""
        if not records:
            raise ValueError("nothing to sort")
        if self.replacement_selection:
            raw_runs = form_runs_replacement_selection(records, self.memory_records)
        else:
            raw_runs = form_runs_memory_sort(records, self.memory_records)
        runs = [
            BlockedRun.from_records(run, self.records_per_block) for run in raw_runs
        ]
        initial_runs = len(runs)

        passes = 0
        result: MergeResult
        while True:
            passes += 1
            if self.max_fan_in is None or len(runs) <= self.max_fan_in:
                result = merge_runs(runs)
                break
            runs = self._partial_pass(runs)
        final_fan_in = len(result.blocks_per_run)

        if verify:
            verify_sorted_permutation(list(records), result.records)
        return SortStatistics(
            records=len(records),
            initial_runs=initial_runs,
            merge_passes=passes,
            final_fan_in=final_fan_in,
            output=result.records,
            final_merge=result,
        )

    def _partial_pass(self, runs: list[BlockedRun]) -> list[BlockedRun]:
        """Merge groups of ``max_fan_in`` runs into longer runs."""
        assert self.max_fan_in is not None
        merged: list[BlockedRun] = []
        for start in range(0, len(runs), self.max_fan_in):
            group = runs[start : start + self.max_fan_in]
            if len(group) == 1:
                merged.append(group[0])
                continue
            result = merge_runs(group)
            merged.append(
                BlockedRun.from_records(result.records, self.records_per_block)
            )
        return merged


def trace_driven_metrics(
    stats: SortStatistics,
    config: SimulationConfig,
    trial: int = 0,
) -> MergeMetrics:
    """Simulate the final merge pass's I/O using its *real* trace.

    ``config`` must describe the same merge shape the sort produced:
    equal-length runs of ``config.blocks_per_run`` blocks and
    ``config.num_runs`` runs.  Raises ``ValueError`` on mismatch --
    use memory-load run formation with ``memory_records = blocks_per_run
    * records_per_block`` and an exact multiple of that many records.
    """
    blocks = stats.final_merge.blocks_per_run
    if len(blocks) != config.num_runs:
        raise ValueError(
            f"sort produced {len(blocks)} final runs, config expects "
            f"{config.num_runs}"
        )
    if any(b != config.blocks_per_run for b in blocks):
        raise ValueError(
            f"run lengths {sorted(set(blocks))} do not all equal the "
            f"configured {config.blocks_per_run} blocks"
        )
    return api.run_trials(
        [config],
        trials=[trial],
        depletion_sources=[iter(stats.final_depletion_trace)],
    )[0]
