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
