"""Property-based tests on whole simulation trials.

Random small configurations must always complete the merge, deplete the
exact block count, fetch every non-preloaded block exactly once, and
respect timing lower bounds -- regardless of strategy, cache size, or
synchronization -- and the batch kernel must reproduce the reference
kernel on every one of them, bit for bit.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.merge_sim import MergeTrial
from repro.core.parameters import (
    CachePolicy,
    PrefetchStrategy,
    SimulationConfig,
    VictimSelector,
)
from repro.disks.drive import QueueDiscipline
from repro.sim import batch


@st.composite
def small_configs(draw):
    num_runs = draw(st.integers(min_value=1, max_value=8))
    num_disks = draw(st.integers(min_value=1, max_value=4))
    blocks_per_run = draw(st.integers(min_value=1, max_value=25))
    strategy = draw(st.sampled_from(list(PrefetchStrategy)))
    depth = draw(st.integers(min_value=1, max_value=6))
    synchronized = draw(st.booleans())
    policy = draw(st.sampled_from(list(CachePolicy)))
    selector = draw(st.sampled_from(list(VictimSelector)))
    discipline = draw(st.sampled_from(list(QueueDiscipline)))
    cpu = draw(st.sampled_from([0.0, 0.3]))
    write_disks = draw(st.sampled_from([0, 0, 0, 1, 2]))
    config = SimulationConfig(
        num_runs=num_runs,
        num_disks=num_disks,
        strategy=strategy,
        prefetch_depth=depth,
        blocks_per_run=blocks_per_run,
        synchronized=synchronized,
        cache_policy=policy,
        victim_selector=selector,
        queue_discipline=discipline,
        cpu_ms_per_block=cpu,
        write_disks=write_disks,
        trials=1,
    )
    # Optionally squeeze the cache (but never below the legal minimum).
    if draw(st.booleans()):
        extra = draw(st.integers(min_value=0, max_value=20))
        config = SimulationConfig(
            **{
                **config.__dict__,
                "cache_capacity": config.minimum_cache_capacity + extra,
            }
        )
    seed = draw(st.integers(min_value=0, max_value=2**20))
    return config, seed


@given(small_configs())
@settings(max_examples=120, deadline=None)
def test_every_configuration_completes(config_and_seed):
    config, seed = config_and_seed
    metrics = MergeTrial(config, seed=seed).run()
    assert metrics.blocks_depleted == config.total_blocks


@given(small_configs())
@settings(max_examples=120, deadline=None)
def test_block_fetch_conservation(config_and_seed):
    config, seed = config_and_seed
    metrics = MergeTrial(config, seed=seed).run()
    preloaded = config.num_runs * config.initial_blocks_per_run
    assert metrics.blocks_fetched == config.total_blocks - preloaded
    fetched_at_disks = sum(stats.blocks for stats in metrics.drive_stats)
    assert fetched_at_disks == metrics.blocks_fetched


@given(small_configs())
@settings(max_examples=120, deadline=None)
def test_timing_lower_bounds(config_and_seed):
    config, seed = config_and_seed
    metrics = MergeTrial(config, seed=seed).run()
    # CPU work alone is a hard floor.
    assert metrics.total_time_ms >= config.total_blocks * config.cpu_ms_per_block - 1e-6
    # Per-disk transfer time is a hard floor on the critical path.
    per_disk_transfer = [stats.transfer_ms for stats in metrics.drive_stats]
    if per_disk_transfer:
        assert metrics.total_time_ms >= max(per_disk_transfer) - 1e-6


@given(small_configs())
@settings(max_examples=80, deadline=None)
def test_success_ratio_and_concurrency_in_range(config_and_seed):
    config, seed = config_and_seed
    metrics = MergeTrial(config, seed=seed).run()
    assert 0.0 <= metrics.success_ratio <= 1.0
    assert 0.0 <= metrics.average_concurrency <= config.num_disks + 1e-9
    assert metrics.peak_concurrency <= config.num_disks


@given(small_configs())
@settings(max_examples=60, deadline=None)
def test_determinism(config_and_seed):
    config, seed = config_and_seed
    first = MergeTrial(config, seed=seed).run()
    second = MergeTrial(config, seed=seed).run()
    assert first.total_time_ms == second.total_time_ms
    assert first.fetch_requests == second.fetch_requests
    assert first.full_prefetch_decisions == second.full_prefetch_decisions


def _outcome(run) -> object:
    """``run()``'s metrics as a dict, or the (type, message) of its failure."""
    try:
        return run().to_dict()
    except Exception as exc:
        return (type(exc), str(exc))


@given(small_configs())
@settings(max_examples=2000, deadline=None)
def test_batch_kernel_matches_reference(config_and_seed):
    """Every strategy, selector, policy and discipline, sync or async,
    with CPU cost, squeezed caches and write disks (which the batch tier
    hands to the reference kernel): the same metrics, and no trial the
    interpreter starts diverges."""
    config, seed = config_and_seed
    results: list = []

    def flat_run():
        results.extend(batch.run_trial_batch(config, [seed]))
        return results[0]

    flat = _outcome(flat_run)
    reference = _outcome(lambda: MergeTrial(config, seed=seed).run())
    assert flat == reference
    assert [m for m in results if m.fallback == "divergence"] == []
