"""Read-only views over one traced trial (a ``TrialTrace``).

Service spans (with their ``issue_ms``) become per-request records,
wait statistics and an ASCII Gantt chart -- how long do demand fetches
queue behind prefetches?  ``LEVEL`` instants on the ``"busy-disks"``
and ``"cache"`` tracks become step functions rendered as sparklines --
the quickest way to *see* idle disks or a starved cache.  Record under
``repro.api.configure(trace=True)``, then read ``ctx.trace.trials[i]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.disks.request import FetchKind
from repro.obs.events import (
    BUSY_DISKS_TRACK,
    CACHE_TRACK,
    SERVICE_KINDS,
    EventKind,
)

#: A step function: (time_ms, value) breakpoints, first at time 0.
Timeline = Sequence[tuple[float, float]]

_SPARK_LEVELS = " .:-=+*#%@"


@dataclass(frozen=True)
class RequestTrace:
    """One serviced fetch request."""

    run: int
    disk: int
    kind: FetchKind
    blocks: int
    issue_ms: float
    start_ms: float
    finish_ms: float

    @property
    def queue_wait_ms(self) -> float:
        return self.start_ms - self.issue_ms

    @property
    def service_ms(self) -> float:
        return self.finish_ms - self.start_ms


def request_traces(trial) -> list[RequestTrace]:
    """One record per completed fetch, in completion order.

    Built from the demand-fetch and prefetch service spans of the input
    drives' ``disk-<n>`` tracks (output writes on ``write-<n>`` are not
    fetches); raises on a span without an ``issue_ms`` arg.
    """
    traces = []
    for event in trial.events:
        if event.kind not in SERVICE_KINDS:
            continue
        if not event.track.startswith("disk-"):
            continue
        args = event.args
        if "issue_ms" not in args:
            raise ValueError(
                f"service span on {event.track} at {event.start_ms} ms "
                "has no issue_ms"
            )
        traces.append(
            RequestTrace(
                run=args["run"],
                disk=int(event.track[len("disk-"):]),
                kind=(
                    FetchKind.DEMAND
                    if event.kind is EventKind.DEMAND_FETCH
                    else FetchKind.PREFETCH
                ),
                blocks=args["blocks"],
                issue_ms=args["issue_ms"],
                start_ms=event.start_ms,
                finish_ms=event.end_ms,
            )
        )
    return traces


def _level_timeline(trial, track: str) -> list[tuple[float, float]]:
    timeline = [(0.0, 0.0)]
    timeline.extend(
        (event.start_ms, float(event.args["value"]))
        for event in trial.events
        if event.kind is EventKind.LEVEL and event.track == track
    )
    return timeline


def concurrency_timeline(trial) -> list[tuple[float, float]]:
    """Busy input drives over time, as (time_ms, count) breakpoints."""
    return _level_timeline(trial, BUSY_DISKS_TRACK)


def cache_timeline(trial) -> list[tuple[float, float]]:
    """Occupied-or-reserved cache blocks over time, as breakpoints."""
    return _level_timeline(trial, CACHE_TRACK)


@dataclass(frozen=True)
class RequestStatistics:
    """Summary over one kind of request."""

    count: int
    mean_queue_wait_ms: float
    max_queue_wait_ms: float
    mean_service_ms: float
    total_blocks: int


def request_statistics(
    traces: Sequence[RequestTrace],
    kind: FetchKind | None = None,
) -> RequestStatistics:
    """Aggregate waits and service times, optionally by kind."""
    selected = [t for t in traces if kind is None or t.kind is kind]
    if not selected:
        return RequestStatistics(0, 0.0, 0.0, 0.0, 0)
    waits = [t.queue_wait_ms for t in selected]
    services = [t.service_ms for t in selected]
    return RequestStatistics(
        count=len(selected),
        mean_queue_wait_ms=sum(waits) / len(waits),
        max_queue_wait_ms=max(waits),
        mean_service_ms=sum(services) / len(services),
        total_blocks=sum(t.blocks for t in selected),
    )


def render_gantt(
    traces: Sequence[RequestTrace],
    num_disks: int,
    width: int = 72,
    start_ms: float = 0.0,
    end_ms: float | None = None,
) -> str:
    """ASCII service chart: one row per disk, time left to right.

    Cells show ``D`` where a demand fetch is in service, ``p`` for a
    prefetch, ``.`` idle.  Overlaps within a cell favour demand marks.
    """
    if num_disks < 1:
        raise ValueError("need at least one disk")
    if not traces:
        raise ValueError("no traces to render")
    horizon = end_ms if end_ms is not None else max(t.finish_ms for t in traces)
    if horizon <= start_ms:
        raise ValueError("empty time window")
    span = horizon - start_ms
    rows = [["."] * width for _ in range(num_disks)]

    def column(time_ms: float) -> int:
        fraction = (time_ms - start_ms) / span
        return min(width - 1, max(0, int(fraction * width)))

    for trace in traces:
        if trace.finish_ms < start_ms or trace.start_ms > horizon:
            continue
        mark = "D" if trace.kind is FetchKind.DEMAND else "p"
        first = column(max(trace.start_ms, start_ms))
        last = column(min(trace.finish_ms, horizon))
        row = rows[trace.disk]
        for cell in range(first, last + 1):
            if row[cell] != "D":  # demand marks win overlaps
                row[cell] = mark
    lines = [
        f"disk {disk} |{''.join(row)}|" for disk, row in enumerate(rows)
    ]
    lines.append(
        f"        {start_ms:.0f}ms{'':>{max(1, width - 12)}}{horizon:.0f}ms"
    )
    lines.append("        D demand fetch   p prefetch   . idle")
    return "\n".join(lines)


def downsample(timeline: Timeline, buckets: int, end_ms: float) -> list[float]:
    """Time-weighted mean of a step function over equal buckets.

    ``timeline`` holds (time, value) breakpoints: the value holds from
    its breakpoint until the next.  Times beyond ``end_ms`` are
    ignored; an empty timeline yields zeros.
    """
    if buckets < 1:
        raise ValueError("need at least one bucket")
    if end_ms <= 0:
        return [0.0] * buckets
    means = [0.0] * buckets
    if not timeline:
        return means
    width = end_ms / buckets
    points = list(timeline) + [(end_ms, timeline[-1][1])]
    for (start, value), (nxt, _v) in zip(points, points[1:]):
        start = max(0.0, min(start, end_ms))
        nxt = max(0.0, min(nxt, end_ms))
        if nxt <= start:
            continue
        first = int(start // width)
        last = int(min(nxt, end_ms - 1e-12) // width)
        for bucket in range(first, last + 1):
            lo = max(start, bucket * width)
            hi = min(nxt, (bucket + 1) * width)
            if hi > lo:
                means[bucket] += value * (hi - lo)
    return [m / width for m in means]


def render_sparkline(values: Sequence[float], maximum: float) -> str:
    """One-line sparkline; values are scaled against ``maximum``."""
    if maximum <= 0:
        raise ValueError("maximum must be positive")
    top = len(_SPARK_LEVELS) - 1
    cells = []
    for value in values:
        level = round(min(max(value / maximum, 0.0), 1.0) * top)
        cells.append(_SPARK_LEVELS[level])
    return "".join(cells)


def utilization_report(
    trial,
    num_disks: int,
    cache_capacity: int,
    buckets: int = 60,
) -> str:
    """Render disk-concurrency and cache-occupancy sparklines.

    ``trial`` is a finished :class:`~repro.obs.collector.TrialTrace` of
    a simulated merge: the span comes from its ``total_time_ms`` gauge.
    """
    end = trial.registry.to_dict()["gauges"].get("total_time_ms")
    if end is None or not any(
        event.kind is EventKind.LEVEL for event in trial.events
    ):
        raise ValueError(
            "no finished simulated trial: trace a MergeTrial run "
            "(repro.api.configure(trace=True))"
        )
    disks = downsample(concurrency_timeline(trial), buckets, end)
    cache = downsample(cache_timeline(trial), buckets, end)
    lines = [
        f"timeline over {end / 1000.0:.2f}s ({buckets} buckets)",
        f"busy disks /{num_disks}: |{render_sparkline(disks, num_disks)}|",
        f"cache used /{cache_capacity}: |{render_sparkline(cache, cache_capacity)}|",
        (
            f"mean busy disks {sum(disks) / len(disks):.2f}, "
            f"mean cache occupancy {sum(cache) / len(cache):.1f} blocks"
        ),
    ]
    return "\n".join(lines)
