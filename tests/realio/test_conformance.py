"""Strategy conformance: every planner honors the allocation discipline.

One parametrized suite asserting the buffer-allocation invariants —
occupancy never exceeds the pool, no block is freed twice — for every
registered strategy variant, against *both* simulator kernels and the
real-I/O backend.  The simulated cache and the real pool raise
:class:`~repro.core.cache.CacheAccountingError` on any violation, so a
completed run plus the reported occupancy statistics are the proof.
"""

import pytest

from repro.core.cache import CacheAccountingError
from repro.core.parameters import (
    CachePolicy,
    PrefetchStrategy,
    SimulationConfig,
    VictimSelector,
)
from repro.core.simulator import MergeSimulation
from repro.realio import RealIOConfig, RealMerge, generate_dataset

#: Every registered strategy variant: (id, strategy, policy, adaptive).
VARIANTS = [
    ("none", PrefetchStrategy.NONE, CachePolicy.CONSERVATIVE, False),
    ("intra-run", PrefetchStrategy.INTRA_RUN, CachePolicy.CONSERVATIVE, False),
    (
        "inter-run-conservative",
        PrefetchStrategy.INTER_RUN,
        CachePolicy.CONSERVATIVE,
        False,
    ),
    ("inter-run-greedy", PrefetchStrategy.INTER_RUN, CachePolicy.GREEDY, False),
    (
        "inter-run-adaptive",
        PrefetchStrategy.INTER_RUN,
        CachePolicy.CONSERVATIVE,
        True,
    ),
]

RUNS = 5
DISKS = 2
BLOCKS = 40


@pytest.mark.parametrize(
    "name,strategy,policy,adaptive", VARIANTS, ids=[v[0] for v in VARIANTS]
)
@pytest.mark.parametrize("kernel", ["reference", "batch"])
def test_simulated_strategies_respect_the_pool(
    name, strategy, policy, adaptive, kernel
):
    config = SimulationConfig(
        num_runs=RUNS,
        num_disks=DISKS,
        strategy=strategy,
        prefetch_depth=4,
        blocks_per_run=BLOCKS,
        cache_policy=policy,
        adaptive_depth=adaptive,
        trials=2,
        base_seed=23,
        kernel=kernel,
    )
    aggregate = MergeSimulation(config).run()
    capacity = config.resolved_cache_capacity
    # The simulator installs the initial N blocks per run at zero cost;
    # only merge-phase fetches are counted.
    preload = RUNS * config.effective_depth
    for metrics in aggregate.trials:
        assert metrics.blocks_depleted == RUNS * BLOCKS
        assert metrics.cache_min_free >= 0
        assert metrics.cache_peak_occupancy <= capacity
        assert metrics.blocks_fetched == metrics.blocks_depleted - preload


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("realio-conf")
    return generate_dataset(
        root, num_runs=RUNS, num_disks=DISKS, blocks_per_run=8, seed=29
    )


@pytest.mark.parametrize(
    "name,strategy,policy,adaptive",
    [v for v in VARIANTS if not v[3]],  # realio planners are non-adaptive
    ids=[v[0] for v in VARIANTS if not v[3]],
)
def test_real_backend_strategies_respect_the_pool(
    dataset, name, strategy, policy, adaptive
):
    config = RealIOConfig(
        strategy=strategy, prefetch_depth=3, cache_policy=policy
    )
    merge = RealMerge(dataset, config, seed=31)
    result = merge.run()  # run() itself re-checks every pool invariant
    assert result.sorted_ok
    capacity = config.resolved_cache_capacity(dataset)
    assert result.metrics.cache_min_free >= 0
    assert result.metrics.cache_peak_occupancy <= capacity
    assert result.metrics.blocks_fetched == dataset.total_blocks
    # The drained pool refuses a double free: every block was released
    # exactly once.
    with pytest.raises(CacheAccountingError, match="no resident block"):
        merge.cache.deplete(0)
    merge.cache.check()
