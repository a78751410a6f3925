"""Schema tolerance: metrics written by other schema versions still load."""

import json

import pytest

from repro.core.metrics import MergeMetrics
from repro.core.parameters import PrefetchStrategy, SimulationConfig
from repro.core.simulator import MergeSimulation
from repro.disks.drive import DriveStats


def _metrics() -> MergeMetrics:
    config = SimulationConfig(
        num_runs=3,
        num_disks=2,
        strategy=PrefetchStrategy.INTRA_RUN,
        prefetch_depth=2,
        blocks_per_run=20,
        trials=1,
    )
    return MergeSimulation(config).run().trials[0]


def test_drive_stats_ignores_unknown_keys():
    stats = DriveStats(requests=4, blocks=9, seek_ms=1.5)
    data = stats.to_dict()
    data["invented_by_a_newer_version"] = [1, 2, 3]
    assert DriveStats.from_dict(data) == stats


def test_drive_stats_fills_missing_keys_with_defaults():
    # A cache written before the fault counters existed.
    data = DriveStats(requests=4).to_dict()
    for key in ("faults", "retries", "retry_backoff_ms", "fault_ms",
                "outage_wait_ms", "requeues", "retry_histogram"):
        del data[key]
    restored = DriveStats.from_dict(data)
    assert restored.requests == 4
    assert restored.faults == 0
    assert restored.retry_histogram == {}


def test_merge_metrics_round_trip_survives_unknown_keys():
    metrics = _metrics()
    data = json.loads(json.dumps(metrics.to_dict()))
    data["metric_from_the_future"] = 42.0
    for drive in data["drive_stats"]:
        drive["unknown_counter"] = 1
    assert MergeMetrics.from_dict(data) == metrics


def test_merge_metrics_fills_missing_fault_fields_with_defaults():
    metrics = _metrics()
    data = json.loads(json.dumps(metrics.to_dict()))
    for key in ("fault_stall_ms", "healthy_stall_ms", "demand_timeouts",
                "degraded_skips"):
        del data[key]
    restored = MergeMetrics.from_dict(data)
    assert restored.fault_stall_ms == 0.0
    assert restored.demand_timeouts == 0
    assert restored.total_time_ms == metrics.total_time_ms


def test_merge_metrics_missing_required_key_is_a_key_error():
    # No default to fall back on: the store counts the entry as a miss.
    data = _metrics().to_dict()
    del data["seed"]
    with pytest.raises(KeyError, match="seed"):
        MergeMetrics.from_dict(data)
