"""Tests for the per-request view over traced trials."""

import pytest

from repro.api import configure
from repro.core.merge_sim import MergeTrial
from repro.core.parameters import PrefetchStrategy, SimulationConfig
from repro.disks.request import FetchKind
from repro.obs.collector import TrialTrace
from repro.obs.events import EventKind
from repro.obs.views import (
    RequestTrace,
    render_gantt,
    request_statistics,
    request_traces,
)


def run_traced(**kwargs):
    defaults = dict(
        num_runs=4, num_disks=2, strategy=PrefetchStrategy.INTER_RUN,
        prefetch_depth=3, cache_capacity=40, blocks_per_run=30,
        trials=1,
    )
    defaults.update(kwargs)
    with configure(trace=True) as ctx:
        metrics = MergeTrial(SimulationConfig(**defaults), seed=3).run()
    return metrics, request_traces(ctx.trace.trials[0])


def test_traces_absent_by_default():
    config = SimulationConfig(num_runs=2, num_disks=1, blocks_per_run=10,
                              trials=1)
    trial = MergeTrial(config, seed=1)
    assert trial.trace is None
    assert trial.run().to_dict()["request_traces"] is None


def test_every_request_traced():
    metrics, traces = run_traced()
    assert len(traces) == metrics.fetch_requests
    assert sum(t.blocks for t in traces) == metrics.blocks_fetched


def test_output_writes_are_not_fetch_records():
    metrics, traces = run_traced(write_disks=2)
    assert metrics.blocks_written > 0
    assert len(traces) == metrics.fetch_requests
    assert sum(t.blocks for t in traces) == metrics.blocks_fetched


def test_trace_fields_consistent():
    _metrics, traces = run_traced()
    for trace in traces:
        assert trace.issue_ms <= trace.start_ms <= trace.finish_ms
        assert trace.queue_wait_ms >= 0
        assert trace.service_ms > 0
        assert 0 <= trace.disk < 2
        assert 0 <= trace.run < 4
        assert trace.kind in (FetchKind.DEMAND, FetchKind.PREFETCH)


def test_trace_service_includes_transfer_time():
    _metrics, traces = run_traced()
    for trace in traces:
        assert trace.service_ms >= trace.blocks * 2.05 - 1e-9


def test_request_statistics():
    _metrics, traces = run_traced()
    overall = request_statistics(traces)
    demand = request_statistics(traces, FetchKind.DEMAND)
    prefetch = request_statistics(traces, FetchKind.PREFETCH)
    assert overall.count == demand.count + prefetch.count
    assert overall.total_blocks == demand.total_blocks + prefetch.total_blocks
    assert demand.count > 0
    assert overall.mean_service_ms > 0
    assert overall.max_queue_wait_ms >= overall.mean_queue_wait_ms


def test_request_statistics_empty():
    stats = request_statistics([])
    assert stats.count == 0
    assert stats.total_blocks == 0


def test_from_request_rejects_incomplete():
    # A service span without its issue time cannot become a record.
    trial = TrialTrace(0, seed=1)
    trial.span(EventKind.DEMAND_FETCH, "disk-0", 1.0, 3.0,
               {"run": 0, "blocks": 1})
    with pytest.raises(ValueError, match="issue_ms"):
        request_traces(trial)


def test_gantt_renders_rows_per_disk():
    _metrics, traces = run_traced()
    chart = render_gantt(traces, num_disks=2, width=40)
    lines = chart.splitlines()
    assert lines[0].startswith("disk 0 |")
    assert lines[1].startswith("disk 1 |")
    assert len(lines[0]) == len("disk 0 ||") + 40
    assert "D" in chart  # demand fetches visible
    assert "demand fetch" in chart


def test_gantt_demand_wins_overlap():
    traces = [
        RequestTrace(run=0, disk=0, kind=FetchKind.PREFETCH, blocks=1,
                     issue_ms=0, start_ms=0, finish_ms=100),
        RequestTrace(run=1, disk=0, kind=FetchKind.DEMAND, blocks=1,
                     issue_ms=0, start_ms=0, finish_ms=100),
    ]
    chart = render_gantt(traces, num_disks=1, width=10)
    row = chart.splitlines()[0]
    assert "p" not in row
    assert row.count("D") == 10


def test_gantt_window_clipping():
    traces = [
        RequestTrace(run=0, disk=0, kind=FetchKind.PREFETCH, blocks=1,
                     issue_ms=0, start_ms=0, finish_ms=10),
        RequestTrace(run=0, disk=0, kind=FetchKind.PREFETCH, blocks=1,
                     issue_ms=90, start_ms=90, finish_ms=100),
    ]
    chart = render_gantt(traces, num_disks=1, width=10,
                         start_ms=50, end_ms=100)
    row = chart.splitlines()[0]
    # Only the second request falls in the window.
    assert row.index("p") > len("disk 0 |") + 5


def test_gantt_invalid_arguments():
    trace = RequestTrace(run=0, disk=0, kind=FetchKind.DEMAND, blocks=1,
                         issue_ms=0, start_ms=0, finish_ms=1)
    with pytest.raises(ValueError):
        render_gantt([], num_disks=1)
    with pytest.raises(ValueError):
        render_gantt([trace], num_disks=0)
    with pytest.raises(ValueError):
        render_gantt([trace], num_disks=1, start_ms=5, end_ms=5)
