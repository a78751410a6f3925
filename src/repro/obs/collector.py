"""Trace collection: per-trial event streams behind cheap guards.

The simulation never imports an exporter or touches the filesystem;
it holds (at most) a :class:`TrialTrace` and calls :meth:`span` /
:meth:`instant` on it.  Every call site is guarded by ``if trace is
not None`` so an untraced run pays exactly one attribute load and
branch per *potential* emission -- the zero-overhead-when-off
contract; the repository benchmark's ``trace_overhead`` measures what
tracing costs when on.

A :class:`TraceSession` owns the trials of one observed scope (one
``RunContext(trace=...)``): each :class:`MergeTrial` that starts while
the session is ambient registers one :class:`TrialTrace`, identified
by its seed and configuration description.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.events import SERVICE_KINDS, EventKind, TraceEvent
from repro.obs.registry import MetricsRegistry

#: Histogram bounds for queue depth (requests, not ms).
_QUEUE_DEPTH_BOUNDS = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)


class TrialTrace:
    """The events and live instruments of one seeded trial."""

    __slots__ = (
        "trial_index",
        "seed",
        "config_description",
        "events",
        "registry",
    )

    def __init__(
        self,
        trial_index: int,
        seed: int,
        config_description: str = "",
    ) -> None:
        self.trial_index = trial_index
        self.seed = seed
        self.config_description = config_description
        self.events: list[TraceEvent] = []
        self.registry = MetricsRegistry()

    # -- emission hooks (hot path; guarded by the caller) ---------------
    def span(
        self,
        kind: EventKind,
        track: str,
        start_ms: float,
        end_ms: float,
        args: Optional[dict] = None,
    ) -> None:
        """Record a closed interval (emitted at its end)."""
        self.events.append(
            TraceEvent(kind, track, start_ms, end_ms - start_ms, args)
        )

    def instant(
        self,
        kind: EventKind,
        track: str,
        ts_ms: float,
        args: Optional[dict] = None,
    ) -> None:
        """Record a point event."""
        self.events.append(TraceEvent(kind, track, ts_ms, None, args))

    def observe_queue_depth(self, track: str, depth: int) -> None:
        """Queue length seen by a request arriving at a drive."""
        self.registry.histogram(
            "queue_depth", bounds=_QUEUE_DEPTH_BOUNDS, track=track
        ).observe(float(depth))

    def observe_service(self, track: str, kind_value: str, service_ms: float,
                        queue_wait_ms: float) -> None:
        """One completed request's service and queue-wait durations."""
        self.registry.histogram(
            "service_ms", kind=kind_value, track=track
        ).observe(service_ms)
        self.registry.histogram("queue_wait_ms", track=track).observe(
            queue_wait_ms
        )

    def observe_stall(self, stall_ms: float) -> None:
        """One demand-stall duration on the CPU track."""
        self.registry.histogram("demand_stall_ms").observe(stall_ms)

    # -- analysis helpers ----------------------------------------------
    def finalize(self, metrics) -> None:
        """Snapshot the trial's :class:`MergeMetrics` into the registry."""
        self.registry.snapshot_metrics(metrics)

    def service_busy_ms(self, disk: int) -> float:
        """Sum of service-span durations on one disk track.

        Request services on a drive never overlap, so this equals the
        drive's ``DriveStats.busy_ms`` (:func:`check_busy_spans`; pinned
        by ``tests/obs/test_trace_invariants.py``).
        """
        track = f"disk-{disk}"
        return sum(
            event.duration_ms
            for event in self.events
            if event.track == track
            and event.kind in SERVICE_KINDS
            and event.duration_ms is not None
        )

    def events_of(self, kind: EventKind) -> list[TraceEvent]:
        return [event for event in self.events if event.kind is kind]

    def to_dict(self) -> dict:
        """JSON-able snapshot (see :meth:`from_dict`)."""
        return {
            "trial_index": self.trial_index,
            "seed": self.seed,
            "config_description": self.config_description,
            "events": [event.to_dict() for event in self.events],
            "registry": self.registry.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TrialTrace":
        """Inverse of :meth:`to_dict`."""
        trial = cls(
            trial_index=data["trial_index"],
            seed=data["seed"],
            config_description=data.get("config_description", ""),
        )
        trial.events = [
            TraceEvent.from_dict(event) for event in data.get("events", [])
        ]
        trial.registry = MetricsRegistry.from_dict(data.get("registry", {}))
        return trial


class TraceSession:
    """All trials observed while one trace scope was active.

    Usually created through ``RunContext(trace=True)`` (or by passing
    an explicit session as ``trace=``), then exported::

        with configure(trace=True) as ctx:
            MergeSimulation(config).run()
        ctx.trace.export_chrome("merge.json")
    """

    __slots__ = ("name", "trials")

    def __init__(self, name: str = "trace") -> None:
        self.name = name
        self.trials: list[TrialTrace] = []

    def trial(self, seed: int, config_description: str = "") -> TrialTrace:
        """Register (and return) the trace of a newly started trial."""
        trace = TrialTrace(
            trial_index=len(self.trials),
            seed=seed,
            config_description=config_description,
        )
        self.trials.append(trace)
        return trace

    @property
    def total_events(self) -> int:
        return sum(len(trial.events) for trial in self.trials)

    def to_dict(self) -> dict:
        """JSON-able snapshot (see :meth:`from_dict`)."""
        return {
            "name": self.name,
            "trials": [trial.to_dict() for trial in self.trials],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TraceSession":
        """Inverse of :meth:`to_dict`."""
        session = cls(name=data.get("name", "trace"))
        session.trials = [
            TrialTrace.from_dict(trial) for trial in data.get("trials", [])
        ]
        return session

    # -- export conveniences (see repro.obs.export) ---------------------
    def export_chrome(self, path) -> None:
        from repro.obs.export import write_chrome_trace

        write_chrome_trace(self, path)

    def export_jsonl(self, path) -> None:
        from repro.obs.export import write_jsonl

        write_jsonl(self, path)

    def render_timeline(self, width: int = 72, trial: int = 0) -> str:
        from repro.obs.export import render_timeline

        return render_timeline(self.trials[trial], width=width)


#: How far one drive's traced service spans may sit from its busy time.
BUSY_SPAN_TOLERANCE_MS = 1e-6


class BusySpanDrift(RuntimeError):
    """Traced service spans disagree with ``DriveStats.busy_ms``."""


def check_busy_spans(
    session: TraceSession, trials: list, first_trial: int = 0
) -> None:
    """The trace invariant: per-drive service spans == ``busy_ms``.

    ``trials`` are the :class:`~repro.core.metrics.MergeMetrics` of
    consecutive traced trials, the first of them recorded as
    ``session.trials[first_trial]``.  Raises :class:`BusySpanDrift`
    naming the worst drift when it exceeds
    :data:`BUSY_SPAN_TOLERANCE_MS`.
    """
    worst, worst_disk = 0.0, 0
    for index, metrics in enumerate(trials):
        trace = session.trials[first_trial + index]
        for disk, stats in enumerate(metrics.drive_stats):
            drift = abs(trace.service_busy_ms(disk) - stats.busy_ms)
            if drift > worst:
                worst, worst_disk = drift, disk
    if worst > BUSY_SPAN_TOLERANCE_MS:
        raise BusySpanDrift(
            f"trace busy spans drift from DriveStats.busy_ms by "
            f"{worst:.3e} ms on disk {worst_disk}"
        )
