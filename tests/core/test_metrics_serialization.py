"""JSON round-trips for MergeMetrics / AggregateMetrics / DriveStats."""

import dataclasses
import json

from repro.core.metrics import AggregateMetrics, MergeMetrics
from repro.core.parameters import PrefetchStrategy, SimulationConfig
from repro.core.simulator import MergeSimulation
from repro.disks.drive import DriveStats


def _simulate(**overrides):
    config = SimulationConfig(
        num_runs=3,
        num_disks=2,
        strategy=PrefetchStrategy.INTRA_RUN,
        prefetch_depth=2,
        blocks_per_run=20,
        trials=2,
        **overrides,
    )
    return MergeSimulation(config).run()


def test_merge_metrics_round_trip_through_json():
    metrics = _simulate().trials[0]
    payload = json.dumps(metrics.to_dict())
    restored = MergeMetrics.from_dict(json.loads(payload))
    assert restored == metrics
    # Derived properties survive as well.
    assert restored.success_ratio == metrics.success_ratio
    assert restored.total_seek_ms == metrics.total_seek_ms


def test_merge_metrics_round_trip_with_timelines_and_traces():
    # Timelines and request traces live in the trace, not the metrics:
    # a traced trial's metrics equal the untraced ones and still carry
    # the always-null wire keys, while the trace round-trips on its own.
    from repro.api import configure
    from repro.obs.collector import TrialTrace
    from repro.obs.views import (
        cache_timeline,
        concurrency_timeline,
        request_traces,
    )

    with configure(trace=True) as ctx:
        metrics = _simulate().trials[0]
    assert metrics == _simulate().trials[0]
    data = metrics.to_dict()
    for key in ("concurrency_timeline", "cache_timeline", "request_traces"):
        assert key in data and data[key] is None
    assert MergeMetrics.from_dict(json.loads(json.dumps(data))) == metrics

    trial = ctx.trace.trials[0]
    restored = TrialTrace.from_dict(json.loads(json.dumps(trial.to_dict())))
    assert concurrency_timeline(restored) == concurrency_timeline(trial)
    assert cache_timeline(restored) == cache_timeline(trial)
    assert request_traces(restored) == request_traces(trial)
    assert len(request_traces(trial)) == metrics.fetch_requests


def test_aggregate_metrics_round_trip_preserves_statistics():
    aggregate = _simulate()
    restored = AggregateMetrics.from_dict(
        json.loads(json.dumps(aggregate.to_dict()))
    )
    assert restored.config_description == aggregate.config_description
    assert len(restored.trials) == len(aggregate.trials)
    assert restored.total_time_s == aggregate.total_time_s
    assert restored.success_ratio == aggregate.success_ratio
    # Byte-identical re-serialization: the contract the sweep cache
    # relies on for "parallel == serial" comparisons.
    assert json.dumps(restored.to_dict()) == json.dumps(aggregate.to_dict())


def test_drive_stats_round_trip():
    stats = DriveStats(requests=3, blocks=9, seek_ms=1.5,
                       samples={"seek": 0.5})
    assert DriveStats.from_dict(json.loads(json.dumps(stats.to_dict()))) == stats


def test_drive_stats_to_dict_matches_asdict():
    # to_dict spells its fields out instead of reflecting; it must stay
    # exactly what dataclasses.asdict produced: same keys, same order,
    # same values, and fresh copies of the two histograms.
    stats = DriveStats(requests=3, blocks=9, seek_ms=1.5, faults=2,
                       retry_histogram={"2": 1, "3": 1},
                       samples={"seek": 0.5})
    snapshot = stats.to_dict()
    assert list(snapshot.items()) == list(dataclasses.asdict(stats).items())
    assert snapshot["retry_histogram"] is not stats.retry_histogram
    assert snapshot["samples"] is not stats.samples
    snapshot["retry_histogram"]["4"] = 1
    snapshot["samples"]["rotation"] = 2.0
    assert stats.retry_histogram == {"2": 1, "3": 1}
    assert stats.samples == {"seek": 0.5}

