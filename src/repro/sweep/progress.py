"""Sweep observability: live counters, console reporting, JSON export.

The engine calls a :class:`ProgressListener` at campaign start, after
every job settles (cached / computed / failed), and at the end.  The
bundled listeners are :class:`ConsoleProgress` (one status line per
settled job plus a final summary) and :class:`NullProgress`; anything that
implements the same three methods — a TUI, a metrics pusher — plugs in
the same way.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Optional, TextIO

if TYPE_CHECKING:  # pragma: no cover
    from repro.sweep.spec import SweepJob

#: How a settled job was satisfied.
CACHED = "cached"
COMPUTED = "computed"
FAILED = "failed"


@dataclass
class SweepStats:
    """Live counters for one engine invocation."""

    total: int = 0
    cached: int = 0
    computed: int = 0
    failed: int = 0
    retries: int = 0
    wall_s: float = 0.0
    sim_s: float = 0.0  #: summed in-worker simulation time
    started_at: float = field(default_factory=time.time)
    #: Computed batch-kernel trials run on the reference kernel, by
    #: reason (see :attr:`repro.core.metrics.MergeMetrics.fallback`).
    fallbacks: dict[str, int] = field(default_factory=dict)

    @property
    def done(self) -> int:
        return self.cached + self.computed + self.failed

    @property
    def throughput(self) -> float:
        """Settled jobs per wall-clock second."""
        return self.done / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def cache_hit_ratio(self) -> float:
        return self.cached / self.total if self.total else 0.0

    def count(self, outcome: str) -> None:
        if outcome == CACHED:
            self.cached += 1
        elif outcome == COMPUTED:
            self.computed += 1
        elif outcome == FAILED:
            self.failed += 1
        else:
            raise ValueError(f"unknown outcome {outcome!r}")

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "cached": self.cached,
            "computed": self.computed,
            "failed": self.failed,
            "retries": self.retries,
            "wall_s": self.wall_s,
            "sim_s": self.sim_s,
            "throughput_jobs_per_s": self.throughput,
            "cache_hit_ratio": self.cache_hit_ratio,
            "started_at": self.started_at,
            "fallbacks": dict(self.fallbacks),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SweepStats":
        """Inverse of :meth:`to_dict`.

        ``throughput_jobs_per_s`` and ``cache_hit_ratio`` are derived
        properties, recomputed rather than stored; reading them here
        keeps the round-trip total and documents the asymmetry.
        """
        data = dict(data)
        data.pop("throughput_jobs_per_s", None)
        data.pop("cache_hit_ratio", None)
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})

    def export_json(self, path: Path | str) -> Path:
        """Write the counters as JSON; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2)
        return path

    def summary(self) -> str:
        text = (
            f"jobs: {self.total} total = {self.computed} computed + "
            f"{self.cached} cached + {self.failed} failed; "
            f"wall {self.wall_s:.1f}s; {self.throughput:.1f} jobs/s; "
            f"cache hit {self.cache_hit_ratio:.0%}"
        )
        if self.fallbacks:
            reasons = ", ".join(
                f"{trials} ({reason})"
                for reason, trials in sorted(self.fallbacks.items())
            )
            text += f"; fallbacks to the reference kernel: {reasons}"
        return text


class ProgressListener:
    """No-op base: override any subset of the callbacks."""

    def on_begin(self, stats: SweepStats) -> None:
        pass

    def on_job(self, job: "SweepJob", outcome: str, stats: SweepStats) -> None:
        pass

    def on_end(self, stats: SweepStats) -> None:
        pass


class NullProgress(ProgressListener):
    pass


class ConsoleProgress(ProgressListener):
    """Streams ``[sweep] 12/40 ...`` lines to a text stream."""

    def __init__(self, stream: Optional[TextIO] = None) -> None:
        self.stream = stream or sys.stderr

    def on_begin(self, stats: SweepStats) -> None:
        print(f"[sweep] {stats.total} jobs queued", file=self.stream)
        self.stream.flush()

    def on_job(self, job: "SweepJob", outcome: str, stats: SweepStats) -> None:
        print(
            f"[sweep] {stats.done}/{stats.total} "
            f"({stats.computed} computed, {stats.cached} cached, "
            f"{stats.failed} failed) {outcome}: {job.describe()}",
            file=self.stream,
        )
        self.stream.flush()

    def on_end(self, stats: SweepStats) -> None:
        print(f"[sweep] {stats.summary()}", file=self.stream)
        self.stream.flush()
