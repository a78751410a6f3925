"""Tests for the merge-phase simulation engine (small configurations)."""

import pytest

from repro.core.merge_sim import MergeTrial
from repro.core.parameters import (
    CachePolicy,
    DiskParameters,
    PrefetchStrategy,
    SimulationConfig,
)

FAST_DISK = DiskParameters(
    seek_ms_per_cylinder=0.03,
    avg_rotational_latency_ms=8.33,
    transfer_ms_per_block=2.05,
)


def config(**kwargs):
    defaults = dict(
        num_runs=4,
        num_disks=2,
        blocks_per_run=50,
        trials=1,
        disk=FAST_DISK,
    )
    defaults.update(kwargs)
    return SimulationConfig(**defaults)


def run(cfg, seed=1, depletion_source=None):
    return MergeTrial(cfg, seed=seed, depletion_source=depletion_source).run()


def test_all_blocks_depleted():
    metrics = run(config())
    assert metrics.blocks_depleted == 4 * 50


def test_every_non_preloaded_block_fetched_exactly_once():
    cfg = config(strategy=PrefetchStrategy.NONE)
    metrics = run(cfg)
    preloaded = cfg.num_runs * cfg.initial_blocks_per_run
    assert metrics.blocks_fetched == cfg.total_blocks - preloaded


def test_intra_run_fetches_fewer_requests():
    none = run(config(strategy=PrefetchStrategy.NONE))
    intra = run(config(strategy=PrefetchStrategy.INTRA_RUN, prefetch_depth=5))
    assert intra.fetch_requests < none.fetch_requests
    assert intra.total_time_ms < none.total_time_ms


def test_deterministic_given_seed():
    first = run(config(), seed=7)
    second = run(config(), seed=7)
    assert first.total_time_ms == second.total_time_ms
    assert first.blocks_fetched == second.blocks_fetched


def test_different_seeds_differ():
    first = run(config(), seed=1)
    second = run(config(), seed=2)
    assert first.total_time_ms != second.total_time_ms


def test_multi_disk_faster_than_single_disk():
    single = run(config(num_disks=1, strategy=PrefetchStrategy.NONE))
    multi = run(config(num_disks=2, strategy=PrefetchStrategy.NONE))
    assert multi.total_time_ms < single.total_time_ms


def test_unsync_never_slower_than_sync_inter_run():
    base = dict(
        strategy=PrefetchStrategy.INTER_RUN,
        prefetch_depth=5,
        cache_capacity=200,
    )
    sync = run(config(synchronized=True, **base))
    unsync = run(config(synchronized=False, **base))
    assert unsync.total_time_ms <= sync.total_time_ms * 1.01


def test_success_ratio_one_with_huge_cache():
    metrics = run(
        config(
            strategy=PrefetchStrategy.INTER_RUN,
            prefetch_depth=5,
            cache_capacity=4 * 50,  # everything fits
        )
    )
    assert metrics.success_ratio == pytest.approx(1.0)


def test_success_ratio_below_one_with_tight_cache():
    metrics = run(
        config(
            strategy=PrefetchStrategy.INTER_RUN,
            prefetch_depth=5,
            cache_capacity=21,  # barely above k*N = 20
        )
    )
    assert 0.0 <= metrics.success_ratio < 0.5


def test_finite_cpu_slows_merge():
    fast = run(config(cpu_ms_per_block=0.0))
    slow = run(config(cpu_ms_per_block=1.0))
    assert slow.total_time_ms > fast.total_time_ms
    assert slow.cpu_busy_ms == pytest.approx(200.0)


def test_cpu_lower_bound_respected():
    metrics = run(config(cpu_ms_per_block=5.0))
    assert metrics.total_time_ms >= 4 * 50 * 5.0


def test_depletion_source_round_robin():
    sequence = [0, 1, 2, 3] * 50
    metrics = run(config(), depletion_source=iter(sequence))
    assert metrics.blocks_depleted == 200


def test_depletion_source_bad_run_rejected():
    sequence = [0] * 51  # run 0 has only 50 blocks
    with pytest.raises(RuntimeError):
        run(config(), depletion_source=iter(sequence))


def test_concurrency_bounded_by_disks():
    metrics = run(
        config(
            num_disks=2,
            strategy=PrefetchStrategy.INTER_RUN,
            prefetch_depth=5,
            cache_capacity=100,
        )
    )
    assert 0 < metrics.average_concurrency <= 2.0
    assert metrics.peak_concurrency <= 2


def test_single_disk_concurrency_is_one():
    metrics = run(config(num_disks=1, strategy=PrefetchStrategy.NONE))
    assert metrics.average_concurrency == pytest.approx(1.0)
    assert metrics.peak_concurrency == 1


def test_demand_hits_in_flight_only_with_prefetching():
    none = run(config(strategy=PrefetchStrategy.NONE))
    assert none.demand_hits_in_flight == 0


def test_greedy_policy_runs_to_completion():
    metrics = run(
        config(
            strategy=PrefetchStrategy.INTER_RUN,
            prefetch_depth=5,
            cache_capacity=30,
            cache_policy=CachePolicy.GREEDY,
        )
    )
    assert metrics.blocks_depleted == 200


def test_seek_time_zero_for_single_run_per_disk():
    """With one run per disk every fetch targets the same region the
    head is already in (sequential run consumption)."""
    metrics = run(
        config(
            num_runs=2,
            num_disks=2,
            strategy=PrefetchStrategy.NONE,
            blocks_per_run=50,
        )
    )
    total_seek = sum(stats.seek_ms for stats in metrics.drive_stats)
    assert total_seek == pytest.approx(0.0)


def test_metrics_time_positive_and_consistent():
    metrics = run(config())
    assert metrics.total_time_ms > 0
    assert metrics.total_time_s == pytest.approx(metrics.total_time_ms / 1000)
    assert metrics.mean_io_ms_per_block == pytest.approx(
        metrics.total_time_ms / metrics.blocks_depleted
    )


def test_inter_run_trial_depletes_every_block():
    cfg = SimulationConfig(
        num_runs=10, num_disks=5, strategy=PrefetchStrategy.INTER_RUN,
        prefetch_depth=10, blocks_per_run=200, trials=1,
    )
    assert run(cfg).blocks_depleted == 2000
