"""Bounded-memory external sorting of files.

The end-to-end pipeline the paper's system implements:

1. **Run formation**: read the input file one memory-load at a time,
   sort each load in memory, and spill it as a temporary run file --
   round-robin across the configured directories (one directory per
   physical disk, mirroring the paper's run placement).
2. **Merge**: open every run with a block reader, k-way merge through a
   loser tree, and stream the output file; per-run block-exhaustion
   events are recorded as the *depletion trace*, directly comparable to
   the random-depletion model the paper simulates.

At no point do more than ``memory_records`` records (plus one block per
open run during the merge) live in memory.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from repro.io.blockio import BLOCK_BYTES, BlockReader, BlockWriter
from repro.io.codec import RecordCodec
from repro.mergesort.records import Record
from repro.mergesort.tournament import LoserTree


@dataclass
class FileSortStats:
    """What one file sort did.

    ``runs``/``run_blocks``/``depletion_trace`` describe the *final*
    merge pass; ``merge_passes`` counts all rounds (1 unless a fan-in
    limit forced intermediate passes).
    """

    records: int
    runs: int
    run_blocks: list[int]
    output_blocks: int
    depletion_trace: list[int] = field(repr=False)
    bytes_read: int = 0
    bytes_written: int = 0
    initial_runs: int = 0
    merge_passes: int = 1

    @property
    def total_run_blocks(self) -> int:
        return sum(self.run_blocks)


class FileSorter:
    """Sorts binary record files with bounded memory.

    Attributes:
        memory_records: records held in memory during run formation.
        temp_dirs: spill directories, used round-robin (model one per
            disk); created if missing.
        codec: record encoding (64-byte records by default).
        block_bytes: I/O unit (4096 by default).
    """

    def __init__(
        self,
        memory_records: int,
        temp_dirs: Sequence[Path],
        codec: Optional[RecordCodec] = None,
        block_bytes: int = BLOCK_BYTES,
        max_fan_in: Optional[int] = None,
    ) -> None:
        if memory_records < 1:
            raise ValueError("memory must hold at least one record")
        if not temp_dirs:
            raise ValueError("need at least one spill directory")
        if max_fan_in is not None and max_fan_in < 2:
            raise ValueError("max_fan_in must be >= 2")
        self.memory_records = memory_records
        self.temp_dirs = [Path(d) for d in temp_dirs]
        self.codec = codec or RecordCodec()
        self.block_bytes = block_bytes
        self.max_fan_in = max_fan_in

    def sort_file(self, input_path: Path, output_path: Path) -> FileSortStats:
        """Sort ``input_path`` into ``output_path``; returns statistics."""
        input_path, output_path = Path(input_path), Path(output_path)
        run_paths = self._form_runs(input_path)
        initial_runs = len(run_paths)
        passes = 1
        try:
            while self.max_fan_in is not None and len(run_paths) > self.max_fan_in:
                run_paths = self._intermediate_pass(run_paths, passes)
                passes += 1
            stats = self._merge_runs(run_paths, output_path)
        finally:
            for path in run_paths:
                path.unlink(missing_ok=True)
        stats.initial_runs = initial_runs
        stats.merge_passes = passes
        return stats

    def _intermediate_pass(
        self, run_paths: list[Path], pass_index: int
    ) -> list[Path]:
        """Merge groups of ``max_fan_in`` runs into longer run files."""
        assert self.max_fan_in is not None
        merged: list[Path] = []
        for group_index in range(0, len(run_paths), self.max_fan_in):
            group = run_paths[group_index : group_index + self.max_fan_in]
            if len(group) == 1:
                merged.append(group[0])
                continue
            directory = self.temp_dirs[len(merged) % len(self.temp_dirs)]
            directory.mkdir(parents=True, exist_ok=True)
            target = directory / f"pass{pass_index:02d}-run{len(merged):05d}.blk"
            merge_files(group, target, self.codec, self.block_bytes)
            for path in group:
                path.unlink(missing_ok=True)
            merged.append(target)
        return merged

    # ------------------------------------------------------------------
    # Phase 1: run formation
    # ------------------------------------------------------------------
    def _form_runs(self, input_path: Path) -> list[Path]:
        reader = BlockReader(input_path, self.codec, self.block_bytes)
        if reader.record_count == 0:
            # An empty (but well-formed) input sorts to an empty output:
            # zero runs, and the merge phase writes a valid header-only
            # output file.
            return []
        run_paths: list[Path] = []
        load: list[Record] = []
        for record in reader:
            load.append(record)
            if len(load) == self.memory_records:
                run_paths.append(self._spill(load, len(run_paths)))
                load = []
        if load:
            run_paths.append(self._spill(load, len(run_paths)))
        return run_paths

    def _spill(self, load: list[Record], run_index: int) -> Path:
        directory = self.temp_dirs[run_index % len(self.temp_dirs)]
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"run-{run_index:05d}.blk"
        load.sort()
        with BlockWriter(path, self.codec, self.block_bytes) as writer:
            writer.write_many(load)
        return path

    # ------------------------------------------------------------------
    # Phase 2: merge
    # ------------------------------------------------------------------
    def _merge_runs(
        self, run_paths: Sequence[Path], output_path: Path
    ) -> FileSortStats:
        if not run_paths:
            # No runs (empty input): still emit a valid, loadable output
            # file whose header records zero records.
            with BlockWriter(output_path, self.codec, self.block_bytes):
                pass
            return FileSortStats(
                records=0,
                runs=0,
                run_blocks=[],
                output_blocks=0,
                depletion_trace=[],
                bytes_read=0,
                bytes_written=self.block_bytes,
            )
        return merge_files(run_paths, output_path, self.codec, self.block_bytes)


def merge_files(
    inputs: Sequence[Path],
    output_path: Path,
    codec: Optional[RecordCodec] = None,
    block_bytes: int = BLOCK_BYTES,
) -> FileSortStats:
    """Merge already-sorted run files into one sorted file.

    Each input must be individually sorted (checked lazily by the merge
    itself only for adjacent records it compares; use
    :func:`verify_sorted_file` for a full check).  Returns the same
    statistics a :class:`FileSorter` merge pass produces, including the
    depletion trace.
    """
    if not inputs:
        raise ValueError("need at least one input file")
    codec = codec or RecordCodec()
    trace: list[int] = []
    readers = []
    for index, path in enumerate(inputs):
        readers.append(
            BlockReader(
                Path(path),
                codec,
                block_bytes,
                on_block_exhausted=lambda i=index: trace.append(i),
            )
        )
    records = 0
    with BlockWriter(Path(output_path), codec, block_bytes) as writer:
        for record in LoserTree(readers):
            writer.write(record)
            records += 1
        output_blocks = writer.blocks_written
    run_blocks = [reader.num_blocks for reader in readers]
    return FileSortStats(
        records=records,
        runs=len(readers),
        run_blocks=run_blocks,
        output_blocks=output_blocks,
        depletion_trace=trace,
        bytes_read=sum((b + 1) * block_bytes for b in run_blocks),
        bytes_written=(output_blocks + 1) * block_bytes,
        initial_runs=len(readers),
        merge_passes=1,
    )


def write_random_input(
    path: Path,
    records: int,
    seed: int,
    codec: Optional[RecordCodec] = None,
    key_range: int = 1 << 40,
) -> None:
    """Generate a binary input file of ``records`` uniform-key records."""
    import random

    rng = random.Random(seed)
    with BlockWriter(Path(path), codec or RecordCodec()) as writer:
        for tag in range(records):
            writer.write(Record(key=rng.randrange(key_range), tag=tag))


def verify_sorted_file(path: Path, codec: Optional[RecordCodec] = None) -> int:
    """Check ``path`` is sorted; returns the record count."""
    reader = BlockReader(Path(path), codec or RecordCodec())
    previous = None
    count = 0
    for record in reader:
        if previous is not None and record < previous:
            raise AssertionError(f"{path} unsorted at record {count}")
        previous = record
        count += 1
    return count
