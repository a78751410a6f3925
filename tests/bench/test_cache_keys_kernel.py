"""The sweep cache is kernel-independent.

Because both kernels produce bit-identical metrics, a result computed
under either must live under one cache key — a sweep on the batch kernel
reuses everything a reference-kernel sweep already paid for (and vice
versa).  The reflection-free key codec is checked here against the
``asdict`` spelling over the kernel-equivalence matrix.
"""

import dataclasses
import enum
import hashlib

import pytest

from repro.core.parameters import (
    DiskParameters,
    PrefetchStrategy,
    SimulationConfig,
)
from repro.disks.geometry import DiskGeometry
from repro.faults.plan import FaultPlan
from repro.sweep.keys import (
    CACHE_SCHEMA_VERSION,
    KEY_EXCLUDED_FIELDS,
    cache_key,
    canonical_json,
    config_from_dict,
    config_to_dict,
    trial_keys,
)
from test_kernel_equivalence import MATRIX


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


def _asdict_form(config: SimulationConfig) -> dict:
    """``config_to_dict`` as it was spelled with ``dataclasses.asdict``."""
    out = {}
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if isinstance(value, enum.Enum):
            value = value.value
        elif isinstance(value, FaultPlan):
            value = value.to_dict()
        elif dataclasses.is_dataclass(value):
            value = dataclasses.asdict(value)
        out[field.name] = value
    return out


def _full_payload_key(config: SimulationConfig, seed: int) -> str:
    """The cache key hashed from the whole payload, without splicing."""
    payload = config_to_dict(config)
    for name in KEY_EXCLUDED_FIELDS:
        payload.pop(name, None)
    if config.fault_plan is not None and config.fault_plan.is_empty():
        payload["fault_plan"] = None
    payload["__seed__"] = seed
    payload["__schema__"] = CACHE_SCHEMA_VERSION
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


#: The kernel-equivalence matrix plus non-default nested dataclasses
#: and a behaviourally empty fault plan.
CODEC_CONFIGS = [
    *MATRIX,
    _config(
        disk=DiskParameters(transfer_ms_per_block=1.0),
        geometry=DiskGeometry(cylinders=400),
        fault_plan=FaultPlan(),
        cache_capacity=64,
    ),
]


@pytest.mark.parametrize("config", CODEC_CONFIGS, ids=lambda c: c.describe())
def test_config_to_dict_matches_asdict_form(config):
    assert list(config_to_dict(config).items()) == list(
        _asdict_form(config).items()
    )


@pytest.mark.parametrize("config", CODEC_CONFIGS, ids=lambda c: c.describe())
def test_trial_keys_match_per_seed_cache_keys(config):
    seeds = [0, 1, 1992, 1993, 10**12]
    keys = trial_keys(config, seeds)
    assert keys == [cache_key(config, seed) for seed in seeds]
    assert keys == [_full_payload_key(config, seed) for seed in seeds]
    assert trial_keys(config, []) == []
