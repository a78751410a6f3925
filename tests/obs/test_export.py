"""Exporters: Chrome trace_event JSON, JSONL, and the text timeline."""

import json

import pytest

from repro.api import configure
from repro.core.parameters import PrefetchStrategy, SimulationConfig
from repro.core.simulator import MergeSimulation
from repro.obs import (
    EventKind,
    TraceSession,
    chrome_trace,
    jsonl_lines,
    render_timeline,
    validate_chrome_trace,
    validate_chrome_trace_file,
    write_trace,
)


@pytest.fixture(scope="module")
def traced_session():
    """One small traced simulation shared by the export tests."""
    config = SimulationConfig(
        num_runs=6,
        num_disks=3,
        strategy=PrefetchStrategy.INTER_RUN,
        prefetch_depth=6,
        blocks_per_run=30,
        trials=2,
    )
    with configure(trace=True) as context:
        MergeSimulation(config).run()
    return context.trace


def _synthetic_session():
    session = TraceSession(name="synthetic")
    trial = session.trial(seed=1, config_description="cfg")
    trial.span(EventKind.DEMAND_FETCH, "disk-0", 0.0, 2.0, args={"run": 0})
    trial.instant(EventKind.FAULT, "disk-0", 1.0)
    trial.span(EventKind.CPU_MERGE, "cpu", 2.0, 2.5)
    return session


# ------------------------------------------------------------ chrome


def test_chrome_trace_structure(traced_session):
    document = chrome_trace(traced_session)
    assert document["displayTimeUnit"] == "ms"
    assert document["otherData"]["trials"] == 2
    phases = {event["ph"] for event in document["traceEvents"]}
    assert phases <= {"X", "i", "M"}
    # One process per trial, numbered from 1.
    pids = {
        event["pid"] for event in document["traceEvents"]
        if event["ph"] != "M"
    }
    assert pids == {1, 2}


def test_chrome_trace_times_are_microseconds():
    document = chrome_trace(_synthetic_session())
    spans = [e for e in document["traceEvents"] if e["ph"] == "X"]
    fetch = next(e for e in spans if e["name"] == "demand-fetch")
    assert fetch["ts"] == pytest.approx(0.0)
    assert fetch["dur"] == pytest.approx(2000.0)  # 2 ms


def test_chrome_trace_names_every_track():
    document = chrome_trace(_synthetic_session())
    thread_names = {
        event["args"]["name"]
        for event in document["traceEvents"]
        if event["ph"] == "M" and event["name"] == "thread_name"
    }
    assert thread_names == {"cpu", "disk-0"}


def test_chrome_trace_validates_against_schema(traced_session):
    assert validate_chrome_trace(chrome_trace(traced_session)) == []


def test_schema_catches_missing_fields():
    document = chrome_trace(_synthetic_session())
    del document["traceEvents"][0]["pid"]
    assert validate_chrome_trace(document)


def test_schema_catches_unknown_phase():
    document = chrome_trace(_synthetic_session())
    document["traceEvents"][-1]["ph"] = "Z"
    assert validate_chrome_trace(document)


def test_schema_requires_metadata_for_every_tid():
    document = chrome_trace(_synthetic_session())
    orphan = dict(
        next(e for e in document["traceEvents"] if e["ph"] == "X")
    )
    orphan["tid"] = 999
    document["traceEvents"].append(orphan)
    errors = validate_chrome_trace(document)
    assert any("metadata" in error for error in errors)


# ------------------------------------------------------------- jsonl


def test_jsonl_lines_carry_trial_events_registry(traced_session):
    lines = jsonl_lines(traced_session)
    types = [line["type"] for line in lines]
    assert types.count("trial") == 2
    assert types.count("registry") == 2
    assert types.count("event") == traced_session.total_events


def test_jsonl_event_lines_reference_their_trial():
    lines = jsonl_lines(_synthetic_session())
    events = [line for line in lines if line["type"] == "event"]
    assert all(line["trial"] == 0 for line in events)
    assert events[0]["kind"] == "demand-fetch"


# ----------------------------------------------------- file dispatch


def test_write_trace_dispatches_on_suffix(tmp_path, traced_session):
    chrome_path = tmp_path / "trace.json"
    jsonl_path = tmp_path / "trace.jsonl"
    assert write_trace(traced_session, chrome_path) == "chrome"
    assert write_trace(traced_session, jsonl_path) == "jsonl"
    assert validate_chrome_trace_file(chrome_path) == []
    first = json.loads(jsonl_path.read_text().splitlines()[0])
    assert first["type"] == "trial"


# ---------------------------------------------------------- timeline


def test_timeline_renders_all_tracks(traced_session):
    text = render_timeline(traced_session.trials[0])
    assert "cpu" in text
    assert "disk-0" in text and "disk-2" in text
    assert "legend:" in text


def test_level_events_export_as_instants_but_skip_the_text_timeline(
    traced_session,
):
    trial = traced_session.trials[0]
    levels = trial.events_of(EventKind.LEVEL)
    assert {event.track for event in levels} == {"busy-disks", "cache"}
    assert all(set(event.args) == {"value"} for event in levels)
    document = chrome_trace(traced_session)
    assert validate_chrome_trace(document) == []
    level_phases = {
        event["ph"] for event in document["traceEvents"]
        if event.get("name") == "level"
    }
    assert level_phases == {"i"}
    text = render_timeline(trial)
    assert "busy-disks" not in text and "cache" not in text


def test_timeline_marks_demand_service():
    text = render_timeline(_synthetic_session().trials[0], width=10)
    assert "D" in text
