"""The sweep cache is kernel-independent.

Because both kernels produce bit-identical metrics, a result computed
under either must live under one cache key — a sweep on the batch kernel
reuses everything a reference-kernel sweep already paid for (and vice
versa).
"""

import dataclasses

from repro.core.parameters import PrefetchStrategy, SimulationConfig
from repro.sweep.keys import cache_key, config_from_dict, config_to_dict


def _config(**kwargs) -> SimulationConfig:
    defaults = dict(
        num_runs=6,
        num_disks=2,
        strategy=PrefetchStrategy.INTRA_RUN,
        prefetch_depth=4,
        blocks_per_run=30,
    )
    defaults.update(kwargs)
    return SimulationConfig(**defaults)


def test_cache_key_shared_across_kernels():
    reference = _config(kernel="reference")
    batched = _config(kernel="batch")
    for seed in (0, 1, 1992):
        assert cache_key(reference, seed) == cache_key(batched, seed)


def test_cache_key_still_distinguishes_real_parameters():
    reference = _config(kernel="reference")
    deeper = _config(kernel="batch", prefetch_depth=5)
    assert cache_key(reference, 1) != cache_key(deeper, 1)


def test_describe_is_kernel_independent():
    assert _config(kernel="batch").describe() == _config(
        kernel="reference"
    ).describe()


def test_kernel_round_trips_through_config_dict():
    config = _config(kernel="batch")
    rebuilt = config_from_dict(config_to_dict(config))
    assert rebuilt.kernel == "batch"
    assert dataclasses.asdict(rebuilt) == dataclasses.asdict(config)
