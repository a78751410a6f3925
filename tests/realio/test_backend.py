"""End-to-end coverage of the real-I/O merge backend."""

import pytest

from repro.core.parameters import PrefetchStrategy
from repro.io.blockio import BlockReader
from repro.obs.collector import TraceSession
from repro.obs.events import EventKind
from repro.realio import (
    RealIOConfig,
    RealMerge,
    generate_dataset,
    run_real_merge,
)

RUNS = 4
DISKS = 2
BLOCKS = 8


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("realio-ds")
    return generate_dataset(
        root, num_runs=RUNS, num_disks=DISKS, blocks_per_run=BLOCKS, seed=7
    )


def test_dataset_geometry(dataset):
    assert dataset.num_runs == RUNS
    assert dataset.num_disks == DISKS
    assert dataset.blocks_per_run == BLOCKS
    assert dataset.total_blocks == RUNS * BLOCKS
    for run, path in enumerate(dataset.run_paths):
        assert path.parent.name == f"disk-{run % DISKS}"
        reader = BlockReader(path)
        records = list(reader)
        assert records == sorted(records)


@pytest.mark.parametrize("strategy", list(PrefetchStrategy))
def test_merge_sorts_and_accounts_every_block(dataset, strategy):
    config = RealIOConfig(strategy=strategy, prefetch_depth=2)
    result = RealMerge(dataset, config, seed=11).run()
    assert result.sorted_ok
    assert result.records_merged == dataset.total_records
    metrics = result.metrics
    assert metrics.blocks_depleted == dataset.total_blocks
    assert metrics.blocks_fetched == dataset.total_blocks
    assert metrics.cache_min_free >= 0
    assert metrics.cache_peak_occupancy <= config.resolved_cache_capacity(
        dataset
    )
    assert sum(s.blocks for s in metrics.drive_stats) == dataset.total_blocks


def test_demand_counts_order_as_the_paper_predicts(dataset):
    """Prefetching removes demand situations.  Exact counts are timing-
    dependent (a block may or may not land before its run drains), but
    without prefetching every post-preload block is a demand — strictly
    more than either prefetching strategy sees."""
    demands = {}
    for strategy in PrefetchStrategy:
        config = RealIOConfig(strategy=strategy, prefetch_depth=4)
        result = RealMerge(dataset, config, seed=3).run()
        demands[strategy] = result.metrics.demand_situations
    # NONE holds one block per run: after the preload, every one of the
    # remaining blocks is a demand situation, deterministically.
    assert demands[PrefetchStrategy.NONE] == dataset.total_blocks - RUNS
    assert demands[PrefetchStrategy.NONE] > demands[PrefetchStrategy.INTRA_RUN]
    assert demands[PrefetchStrategy.NONE] > demands[PrefetchStrategy.INTER_RUN]


def test_trace_busy_spans_match_drive_stats(dataset):
    session = TraceSession("realio-test")
    outcome = run_real_merge(
        dataset,
        RealIOConfig(strategy=PrefetchStrategy.INTER_RUN, prefetch_depth=2),
        trials=2,
        base_seed=5,
        session=session,
    )
    assert outcome.sorted_ok
    assert len(session.trials) == 2
    for trial, metrics in zip(session.trials, outcome.trials):
        for disk, stats in enumerate(metrics.drive_stats):
            assert trial.service_busy_ms(disk) == pytest.approx(
                stats.busy_ms, abs=1e-6
            )
        kinds = {event.kind for event in trial.events}
        assert EventKind.PREFETCH in kinds


def test_request_view_reads_real_disk_traces(dataset):
    from repro.obs.views import request_statistics, request_traces

    trial = TraceSession("realio-requests").trial(seed=4)
    result = RealMerge(
        dataset,
        RealIOConfig(strategy=PrefetchStrategy.INTER_RUN, prefetch_depth=2),
        seed=4,
        trace=trial,
    ).run()
    traces = request_traces(trial)
    assert len(traces) == len(result.samples)
    for trace in traces:
        assert trace.issue_ms <= trace.start_ms <= trace.finish_ms
        assert 0 <= trace.disk < DISKS
    assert request_statistics(traces).total_blocks == dataset.total_blocks


def test_output_file_is_written_sorted(dataset, tmp_path):
    out = tmp_path / "sorted.blk"
    outcome = run_real_merge(
        dataset,
        RealIOConfig(strategy=PrefetchStrategy.INTRA_RUN),
        output_path=out,
    )
    assert outcome.sorted_ok
    records = list(BlockReader(out))
    assert len(records) == dataset.total_records
    assert records == sorted(records)
    assert outcome.trials[0].blocks_written > 0


def test_undersized_pool_is_rejected_up_front(dataset):
    config = RealIOConfig(
        strategy=PrefetchStrategy.INTRA_RUN,
        prefetch_depth=2,
        cache_capacity=RUNS * 2 - 1,  # one short of the preload floor
    )
    with pytest.raises(ValueError, match="cannot hold the preload"):
        RealMerge(dataset, config)


def test_throttle_slows_reads_and_scales_busy_time(dataset):
    fast = RealMerge(
        dataset, RealIOConfig(strategy=PrefetchStrategy.INTRA_RUN)
    ).run()
    slow = RealMerge(
        dataset,
        RealIOConfig(
            strategy=PrefetchStrategy.INTRA_RUN, throttle_ms_per_block=0.5
        ),
    ).run()
    assert slow.sorted_ok
    floor = 0.5 * dataset.total_blocks / dataset.num_disks
    slow_busy = sum(s.busy_ms for s in slow.metrics.drive_stats)
    fast_busy = sum(s.busy_ms for s in fast.metrics.drive_stats)
    assert slow_busy >= floor
    assert slow_busy > fast_busy


def test_config_validation():
    with pytest.raises(ValueError, match="prefetch_depth"):
        RealIOConfig(prefetch_depth=0)
    with pytest.raises(ValueError, match="throttle"):
        RealIOConfig(throttle_ms_per_block=-1.0)


def test_none_strategy_uses_single_block_depth(dataset):
    config = RealIOConfig(strategy=PrefetchStrategy.NONE, prefetch_depth=4)
    assert config.effective_depth == 1
    assert config.resolved_cache_capacity(dataset) == dataset.num_runs
