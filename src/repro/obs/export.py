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
from typing import TextIO, Union

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
#: (faults over stalls over service over mechanics).
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


def render_timeline(trial, width: int = 72) -> str:
    """One row per track, ``width`` virtual-time buckets per row.

    Generalizes :func:`repro.obs.views.render_gantt` (which draws
    demand/prefetch service on disk rows) to every track and kind the
    collector knows: the CPU row shows merge work (``#``) and stalls
    (``s``/``w``), disk rows show service (``D``/``p``), retries
    (``r``), outages (``o``) and faults (``!``).  ``LEVEL`` step
    functions are skipped; :func:`repro.obs.views.utilization_report`
    renders them.
    """
    events = [
        event for event in trial.events if event.kind is not EventKind.LEVEL
    ]
    if not events:
        return "(no events)"
    horizon = max(event.end_ms for event in events)
    if horizon <= 0:
        horizon = 1.0
    scale = width / horizon
    tracks = sorted({event.track for event in events}, key=track_sort_key)
    rows = {track: [" "] * width for track in tracks}
    ranks = {track: [-1] * width for track in tracks}
    for event in events:
        first = min(int(event.start_ms * scale), width - 1)
        last = min(int(event.end_ms * scale), width - 1)
        mark = _TIMELINE_MARKS[event.kind]
        rank = _PRIORITY[event.kind]
        row, row_ranks = rows[event.track], ranks[event.track]
        for cell in range(first, last + 1):
            if rank >= row_ranks[cell]:
                row[cell] = mark
                row_ranks[cell] = rank
    label_width = max(len(track) for track in tracks)
    header = (
        f"trial {trial.trial_index} seed {trial.seed}: "
        f"0 .. {horizon:.1f} ms ({horizon / width:.2f} ms/col)"
    )
    legend = (
        "legend: #=merge s=stall w=write-stall D=demand p=prefetch "
        "r=retry o=outage !=fault x=degraded T=timeout"
    )
    lines = [header]
    for track in tracks:
        lines.append(f"{track.rjust(label_width)} |{''.join(rows[track])}|")
    lines.append(legend)
    return "\n".join(lines)


def write_trace(session, path: Union[str, Path]) -> str:
    """Write the session in the format implied by ``path``'s suffix.

    ``.jsonl`` -> JSONL event log; anything else -> Chrome trace JSON.
    Returns the format written (``"jsonl"`` or ``"chrome"``).
    """
    path = Path(path)
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
