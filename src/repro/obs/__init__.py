"""repro.obs — structured tracing, metrics, and trace exporters.

The observability layer of the simulator: typed span/instant events
(:mod:`repro.obs.events`) collected per trial
(:mod:`repro.obs.collector`), a counters/gauges/histograms registry
(:mod:`repro.obs.registry`), and exporters for Chrome ``trace_event``
JSON, JSONL, and a text timeline (:mod:`repro.obs.export`).

Tracing is off unless a :class:`TraceSession` is made ambient through
:class:`repro.api.RunContext`; with it off, the simulation pays only
``if trace is not None`` guards.  See ``docs/OBSERVABILITY.md``.
"""

from repro.obs.collector import (
    BusySpanDrift,
    TraceSession,
    TrialTrace,
    check_busy_spans,
)
from repro.obs.events import SERVICE_KINDS, EventKind, TraceEvent, track_sort_key
from repro.obs.export import (
    chrome_trace,
    jsonl_lines,
    print_timeline,
    render_timeline,
    write_chrome_trace,
    write_jsonl,
    write_trace,
)
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.schema import (
    load_schema,
    validate_chrome_trace,
    validate_chrome_trace_file,
)

__all__ = [
    "BusySpanDrift",
    "Counter",
    "EventKind",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SERVICE_KINDS",
    "TraceEvent",
    "TraceSession",
    "TrialTrace",
    "check_busy_spans",
    "chrome_trace",
    "jsonl_lines",
    "load_schema",
    "print_timeline",
    "render_timeline",
    "track_sort_key",
    "validate_chrome_trace",
    "validate_chrome_trace_file",
    "write_chrome_trace",
    "write_jsonl",
    "write_trace",
]
