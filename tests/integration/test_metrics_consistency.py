"""Cross-cutting consistency of everything one trial measures.

The same trial is observed by the drive stats, the cache, the
concurrency tracker, and -- through its trace -- the request and
timeline views; these tests assert the views agree with each other --
the kind of internal double-entry bookkeeping that catches subtle
accounting bugs.
"""

import pytest

from repro.api import configure
from repro.core.merge_sim import MergeTrial
from repro.core.parameters import PrefetchStrategy, SimulationConfig
from repro.obs.events import EventKind
from repro.obs.views import (
    cache_timeline,
    concurrency_timeline,
    downsample,
    request_statistics,
    request_traces,
)


def traced_trial(**kwargs):
    defaults = dict(
        num_runs=10,
        num_disks=4,
        strategy=PrefetchStrategy.INTER_RUN,
        prefetch_depth=5,
        cache_capacity=120,
        blocks_per_run=80,
        trials=1,
    )
    defaults.update(kwargs)
    with configure(trace=True) as ctx:
        metrics = MergeTrial(SimulationConfig(**defaults), seed=13).run()
    return metrics, ctx.trace.trials[0]


@pytest.fixture(scope="module")
def traced():
    return traced_trial()


@pytest.fixture(scope="module")
def metrics(traced):
    return traced[0]


@pytest.fixture(scope="module")
def trial(traced):
    return traced[1]


def test_drive_blocks_match_fetch_accounting(metrics):
    assert sum(s.blocks for s in metrics.drive_stats) == metrics.blocks_fetched
    assert sum(s.requests for s in metrics.drive_stats) == metrics.fetch_requests


def test_drive_busy_equals_service_decomposition(metrics):
    for stats in metrics.drive_stats:
        assert stats.busy_ms == pytest.approx(
            stats.seek_ms + stats.rotation_ms + stats.transfer_ms
        )


def test_traces_match_drive_stats(metrics, trial):
    traces = request_traces(trial)
    per_disk_blocks = [0] * 4
    per_disk_service = [0.0] * 4
    for trace in traces:
        per_disk_blocks[trace.disk] += trace.blocks
        per_disk_service[trace.disk] += trace.service_ms
    for disk, stats in enumerate(metrics.drive_stats):
        assert per_disk_blocks[disk] == stats.blocks
        assert per_disk_service[disk] == pytest.approx(stats.busy_ms)
    overall = request_statistics(traces)
    assert overall.count == metrics.fetch_requests
    assert overall.total_blocks == metrics.blocks_fetched


def test_queue_wait_totals_agree(metrics, trial):
    traced_wait = sum(t.queue_wait_ms for t in request_traces(trial))
    drive_wait = sum(s.queue_wait_ms for s in metrics.drive_stats)
    assert traced_wait == pytest.approx(drive_wait)


def test_concurrency_timeline_integral_matches_busy_time(metrics, trial):
    """Integral of the busy-disk step function = total drive busy ms."""
    buckets = 200
    means = downsample(concurrency_timeline(trial), buckets,
                       metrics.total_time_ms)
    integral = sum(means) * metrics.total_time_ms / buckets
    total_busy = sum(s.busy_ms for s in metrics.drive_stats)
    assert integral == pytest.approx(total_busy, rel=1e-6)


def test_average_concurrency_consistent_with_timeline(metrics, trial):
    """Tracker's average (over active time) >= timeline mean (over all
    time), equal when the array is never fully idle."""
    buckets = 400
    means = downsample(concurrency_timeline(trial), buckets,
                       metrics.total_time_ms)
    overall_mean = sum(means) / buckets
    assert metrics.average_concurrency >= overall_mean - 1e-6
    assert metrics.average_concurrency == pytest.approx(
        overall_mean / max(metrics.disk_busy_fraction, 1e-12), rel=0.01
    )


def test_cache_timeline_ends_empty(trial):
    """After the merge every block has been depleted: occupancy 0."""
    assert cache_timeline(trial)[-1][1] == 0.0


def test_cache_timeline_bounded_by_capacity(metrics, trial):
    timeline = cache_timeline(trial)
    assert all(0 <= v <= 120 for _t, v in timeline)
    peak = max(v for _t, v in timeline)
    assert peak == metrics.cache_peak_occupancy
    gauges = trial.registry.to_dict()["gauges"]
    assert peak == gauges["cache_occupancy{stat=peak}"]


def test_demand_situations_bounded_by_depletions(metrics):
    assert metrics.demand_situations <= metrics.blocks_depleted
    assert (
        metrics.fetch_decisions + metrics.demand_hits_in_flight
        == metrics.demand_situations
    )


def test_stall_time_bounded_by_total(metrics):
    assert 0 <= metrics.cpu_stall_ms <= metrics.total_time_ms


def test_level_events_identical_on_reference_and_batch_kernels():
    def levels(kernel):
        _metrics, trial = traced_trial(kernel=kernel)
        return [
            (event.track, event.start_ms, event.args)
            for event in trial.events
            if event.kind is EventKind.LEVEL
        ]

    reference = levels("reference")
    assert reference
    assert levels("batch") == reference
