"""Exporters: Chrome ``trace_event`` JSON, JSONL, and a text timeline.

All exporters are pure functions over an already-collected
:class:`~repro.obs.collector.TraceSession` / ``TrialTrace`` -- the
simulation itself never imports this module, so tracing hooks stay
import-light.

The Chrome exporter targets the ``trace_event`` JSON object format
(the ``{"traceEvents": [...]}`` envelope) that Perfetto and
``chrome://tracing`` load directly: one *process* per trial, one
*thread* per track, ``"X"`` complete events for spans and ``"i"``
instants, timestamps in microseconds of virtual simulation time.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator, Optional, TextIO, Union

from repro.obs.events import EventKind, TraceEvent, track_sort_key

#: Chrome event categories by kind (used for filtering in the UI).
_CATEGORIES = {
    EventKind.DEMAND_FETCH: "io",
    EventKind.PREFETCH: "io",
    EventKind.SEEK: "mechanics",
    EventKind.ROTATION: "mechanics",
    EventKind.TRANSFER: "mechanics",
    EventKind.CPU_MERGE: "cpu",
    EventKind.DEMAND_STALL: "stall",
    EventKind.WRITE_STALL: "stall",
    EventKind.RETRY_BACKOFF: "faults",
    EventKind.OUTAGE_WAIT: "faults",
    EventKind.FAULT: "faults",
    EventKind.DRIVE_DEGRADED: "faults",
    EventKind.DEMAND_TIMEOUT: "faults",
    EventKind.LEVEL: "level",
    EventKind.LEASE_GRANTED: "dist",
    EventKind.LEASE_RENEWED: "dist",
    EventKind.LEASE_EXPIRED: "dist",
    EventKind.SHARD_COMPLETE: "dist",
}


def _track_ids(trial) -> dict[str, int]:
    """Deterministic track -> tid mapping (cpu first, disks by number)."""
    tracks = sorted({event.track for event in trial.events}, key=track_sort_key)
    return {track: tid for tid, track in enumerate(tracks)}


def _chrome_event(event: TraceEvent, pid: int, tid: int) -> dict:
    payload: dict = {
        "name": event.kind.value,
        "cat": _CATEGORIES[event.kind],
        "pid": pid,
        "tid": tid,
        "ts": event.start_ms * 1000.0,  # virtual ms -> trace µs
    }
    if event.is_span:
        payload["ph"] = "X"
        payload["dur"] = event.duration_ms * 1000.0
    else:
        payload["ph"] = "i"
        payload["s"] = "t"  # thread-scoped instant
    if event.args:
        payload["args"] = event.args
    return payload


def chrome_trace(session) -> dict:
    """The session as a Chrome ``trace_event`` JSON object.

    One trace process per trial (named after its seed), one thread per
    track.  Loadable in Perfetto (https://ui.perfetto.dev) or
    ``chrome://tracing``.
    """
    events: list[dict] = []
    for trial in session.trials:
        pid = trial.trial_index + 1  # pid 0 renders oddly in Perfetto
        label = f"trial {trial.trial_index} (seed {trial.seed})"
        if trial.config_description:
            label += f" · {trial.config_description}"
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": label},
            }
        )
        track_ids = _track_ids(trial)
        for track, tid in track_ids.items():
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": track},
                }
            )
        for event in trial.events:
            events.append(_chrome_event(event, pid, track_ids[event.track]))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "source": "repro.obs",
            "session": session.name,
            "trials": len(session.trials),
        },
    }


def write_chrome_trace(session, path: Union[str, Path]) -> None:
    """Write :func:`chrome_trace` output to ``path`` as JSON."""
    payload = chrome_trace(session)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, separators=(",", ":"))
        handle.write("\n")


def jsonl_lines(session) -> list[dict]:
    """The session as a flat record stream (one dict per line).

    Record types: ``trial`` (header with seed and config), ``event``
    (one trace event, tagged with its trial), and ``registry`` (the
    trial's metrics snapshot).  Grep-friendly and streamable.
    """
    lines: list[dict] = []
    for trial in session.trials:
        lines.append(
            {
                "type": "trial",
                "trial": trial.trial_index,
                "seed": trial.seed,
                "config": trial.config_description,
            }
        )
        for event in trial.events:
            record = {"type": "event", "trial": trial.trial_index}
            record.update(event.to_dict())
            lines.append(record)
        lines.append(
            {
                "type": "registry",
                "trial": trial.trial_index,
                "registry": trial.registry.to_dict(),
            }
        )
    return lines


def write_jsonl(session, path: Union[str, Path]) -> None:
    """Write :func:`jsonl_lines` to ``path``, one JSON object per line."""
    with open(path, "w", encoding="utf-8") as handle:
        for line in jsonl_lines(session):
            json.dump(line, handle, separators=(",", ":"), sort_keys=True)
            handle.write("\n")


#: One display character per kind for the text timeline.
_TIMELINE_MARKS = {
    EventKind.DEMAND_FETCH: "D",
    EventKind.PREFETCH: "p",
    EventKind.SEEK: "~",
    EventKind.ROTATION: "~",
    EventKind.TRANSFER: "=",
    EventKind.CPU_MERGE: "#",
    EventKind.DEMAND_STALL: "s",
    EventKind.WRITE_STALL: "w",
    EventKind.RETRY_BACKOFF: "r",
    EventKind.OUTAGE_WAIT: "o",
    EventKind.FAULT: "!",
    EventKind.DRIVE_DEGRADED: "x",
    EventKind.DEMAND_TIMEOUT: "T",
    EventKind.LEASE_GRANTED: "L",
    EventKind.LEASE_RENEWED: "h",
    EventKind.LEASE_EXPIRED: "e",
    EventKind.SHARD_COMPLETE: "C",
}

#: Kinds that win when several map onto the same timeline cell
#: (faults over stalls over service over mechanics): an instant shows
#: over a bucket's time-weighted kind only when it ranks higher, and
#: the rank breaks an exact tie between two kinds' shares.
_MARK_PRIORITY = (
    EventKind.SEEK,
    EventKind.ROTATION,
    EventKind.TRANSFER,
    EventKind.CPU_MERGE,
    EventKind.PREFETCH,
    EventKind.DEMAND_FETCH,
    EventKind.WRITE_STALL,
    EventKind.DEMAND_STALL,
    EventKind.OUTAGE_WAIT,
    EventKind.RETRY_BACKOFF,
    EventKind.DRIVE_DEGRADED,
    EventKind.DEMAND_TIMEOUT,
    EventKind.FAULT,
    # Coordinator instants: never share a track with simulation events,
    # but ordered here (expiry over renewals) for completeness.
    EventKind.LEASE_GRANTED,
    EventKind.LEASE_RENEWED,
    EventKind.SHARD_COMPLETE,
    EventKind.LEASE_EXPIRED,
)
_PRIORITY = {kind: rank for rank, kind in enumerate(_MARK_PRIORITY)}


def _visible_pieces(spans) -> Iterator[tuple[EventKind, float, float]]:
    """One track's spans cut into disjoint ``(kind, start, end)`` pieces.

    Spans nest (a request's seek, transfer and retry backoff lie inside
    its service span), so each moment goes to the highest-ranked kind
    active then.
    """
    edges = sorted(
        [(event.start_ms, 1, event.kind) for event in spans]
        + [(event.end_ms, -1, event.kind) for event in spans],
        key=lambda edge: edge[0],
    )
    active: dict[EventKind, int] = {}
    previous = 0.0
    for time, step, kind in edges:
        if active and time > previous:
            yield max(active, key=_PRIORITY.__getitem__), previous, time
        active[kind] = active.get(kind, 0) + step
        if not active[kind]:
            del active[kind]
        previous = time


def render_timeline(trial, width: int = 72) -> str:
    """One row per track, ``width`` virtual-time buckets per row.

    Covers every track and kind the collector knows: the CPU row shows
    merge work (``#``) and stalls (``s``/``w``), disk rows show service
    (``D``/``p``), retries (``r``), outages (``o``) and faults (``!``).

    Spans are charged to the buckets they overlap by overlap time
    (nested spans by :func:`_visible_pieces`).  A bucket shows the kind
    with the largest share of its time, or a blank when spans cover
    less than half of it, so a brief stall no longer paints a bucket of
    merge work.  Instants (faults, timeouts, degradations, zero-cost
    merge steps) mark their bucket when they outrank its kind.
    ``LEVEL`` step functions are skipped;
    :func:`repro.obs.views.utilization_report` renders them.
    """
    events = [
        event for event in trial.events if event.kind is not EventKind.LEVEL
    ]
    if not events:
        return "(no events)"
    horizon = max(event.end_ms for event in events)
    if horizon <= 0:
        horizon = 1.0
    bucket_ms = horizon / width
    tracks = sorted({event.track for event in events}, key=track_sort_key)
    label_width = max(len(track) for track in tracks)
    lines = [
        f"trial {trial.trial_index} seed {trial.seed}: "
        f"0 .. {horizon:.1f} ms ({bucket_ms:.2f} ms/col)"
    ]
    on_track: dict[str, list[TraceEvent]] = {track: [] for track in tracks}
    for event in events:
        on_track[event.track].append(event)
    for track in tracks:
        spans = []
        instants: list[Optional[EventKind]] = [None] * width
        for event in on_track[track]:
            if event.is_span:
                spans.append(event)
                continue
            cell = min(int(event.start_ms / bucket_ms), width - 1)
            if _PRIORITY[event.kind] >= _PRIORITY.get(instants[cell], -1):
                instants[cell] = event.kind
        shares: list[dict[EventKind, float]] = [{} for _ in range(width)]
        for kind, start, end in _visible_pieces(spans):
            first = min(int(start / bucket_ms), width - 1)
            for cell in range(first, min(int(end / bucket_ms), width - 1) + 1):
                overlap = min(end, (cell + 1) * bucket_ms) - max(
                    start, cell * bucket_ms
                )
                if overlap > 0:
                    shares[cell][kind] = shares[cell].get(kind, 0.0) + overlap
        marks = []
        for share, instant in zip(shares, instants):
            kind = None
            if sum(share.values()) >= bucket_ms / 2:
                kind = max(share, key=lambda k: (share[k], _PRIORITY[k]))
            if _PRIORITY.get(instant, -1) > _PRIORITY.get(kind, -1):
                kind = instant
            marks.append(_TIMELINE_MARKS.get(kind, " "))
        lines.append(f"{track.rjust(label_width)} |{''.join(marks)}|")
    lines.append(
        "legend: #=merge s=stall w=write-stall D=demand p=prefetch "
        "r=retry o=outage !=fault x=degraded T=timeout"
    )
    return "\n".join(lines)


def write_trace(session, path: Union[str, Path]) -> str:
    """Write the session in the format implied by ``path``'s suffix.

    ``.jsonl`` -> JSONL event log; anything else -> Chrome trace JSON.
    Missing parent directories are created.  Returns the format written
    (``"jsonl"`` or ``"chrome"``).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.suffix == ".jsonl":
        write_jsonl(session, path)
        return "jsonl"
    write_chrome_trace(session, path)
    return "chrome"


def print_timeline(session, stream: TextIO, width: int = 72) -> None:
    """Render every trial's timeline to ``stream``."""
    for index, trial in enumerate(session.trials):
        if index:
            stream.write("\n")
        stream.write(render_timeline(trial, width=width))
        stream.write("\n")
