"""Cache-key stability and config serialization round-trips."""

import dataclasses

import pytest

from repro.core.parameters import (
    CachePolicy,
    DiskParameters,
    PrefetchStrategy,
    SimulationConfig,
    VictimSelector,
)
from repro.disks.drive import QueueDiscipline
from repro.disks.geometry import DiskGeometry
from repro.faults.plan import transient_plan
from repro.sweep.keys import (
    KEY_EXCLUDED_FIELDS,
    cache_key,
    coerce_params,
    config_from_dict,
    config_to_dict,
)

BASE = dict(num_runs=8, num_disks=2, strategy=PrefetchStrategy.INTRA_RUN,
            prefetch_depth=3, blocks_per_run=50)


def test_same_config_and_seed_give_same_key():
    a = SimulationConfig(**BASE)
    b = SimulationConfig(**BASE)
    assert cache_key(a, 7) == cache_key(b, 7)


def test_key_ignores_trials_and_base_seed():
    # The cache works at trial granularity: only the per-trial seed
    # matters, so a 10-trial sweep reuses a 5-trial sweep's entries.
    a = SimulationConfig(trials=5, base_seed=1, **BASE)
    b = SimulationConfig(trials=10, base_seed=999, **BASE)
    assert cache_key(a, 7) == cache_key(b, 7)


def test_golden_keys_are_pinned():
    # Literal keys: every store entry ever written is addressed by these
    # bytes, so any change to the codec must leave them untouched (or
    # bump CACHE_SCHEMA_VERSION deliberately).
    assert cache_key(SimulationConfig(num_runs=25, num_disks=5), 1992) == (
        "4b9b470ad712615e62450f9dfe2f6a70b3d33f047d44a688690a31c3c1249b1e"
    )
    faulty = SimulationConfig(
        num_runs=8,
        num_disks=3,
        blocks_per_run=50,
        strategy=PrefetchStrategy.INTER_RUN,
        prefetch_depth=4,
        fault_plan=transient_plan(0.05),
    )
    assert cache_key(faulty, 1992) == (
        "7d7fd72c891fe9a25fbb30c1b3adee05a67f08becf15f0dcd74b6a985038bd66"
    )


def test_seed_changes_key():
    config = SimulationConfig(**BASE)
    assert cache_key(config, 7) != cache_key(config, 8)


@pytest.mark.parametrize("change", [
    {"num_runs": 9},
    {"num_disks": 3},
    {"strategy": PrefetchStrategy.INTER_RUN},
    {"prefetch_depth": 4},
    {"blocks_per_run": 51},
    {"cache_capacity": 200},
    {"synchronized": True},
    {"cpu_ms_per_block": 0.1},
    {"cache_policy": CachePolicy.GREEDY},
    {"victim_selector": VictimSelector.ROUND_ROBIN},
    {"queue_discipline": QueueDiscipline.SSTF},
    {"stream_across_requests": True},
    {"adaptive_depth": True},
    {"write_disks": 1},
    {"write_buffer_blocks": 3},
    {"disk": DiskParameters(transfer_ms_per_block=1.0)},
])
def test_any_parameter_change_changes_key(change):
    base = SimulationConfig(**BASE)
    changed = SimulationConfig(**{**BASE, **change})
    assert cache_key(base, 7) != cache_key(changed, 7)


def test_config_dict_round_trip():
    config = SimulationConfig(
        cache_capacity=300,
        synchronized=True,
        cache_policy=CachePolicy.GREEDY,
        victim_selector=VictimSelector.NEAREST_HEAD,
        queue_discipline=QueueDiscipline.SSTF,
        disk=DiskParameters(seek_ms_per_cylinder=0.05),
        **{**BASE, "strategy": PrefetchStrategy.INTER_RUN},
    )
    assert config_from_dict(config_to_dict(config)) == config


def test_coerce_params_accepts_strings_and_dicts():
    params = coerce_params({
        "strategy": "inter-run",
        "cache_policy": "greedy",
        "disk": {"seek_ms_per_cylinder": 0.05,
                 "avg_rotational_latency_ms": 8.33,
                 "transfer_ms_per_block": 2.05},
        "num_runs": 5,
    })
    assert params["strategy"] is PrefetchStrategy.INTER_RUN
    assert params["cache_policy"] is CachePolicy.GREEDY
    assert isinstance(params["disk"], DiskParameters)
    assert params["num_runs"] == 5


def test_coerce_params_passes_enums_through():
    params = coerce_params({"strategy": PrefetchStrategy.NONE})
    assert params["strategy"] is PrefetchStrategy.NONE


#: One alternative value for every SimulationConfig field, each
#: different from its value in SimulationConfig(**BASE).  A field added
#: to the dataclass needs a row here, and with it a decision: is it in
#: the cache key, or in KEY_EXCLUDED_FIELDS?  The fault plan is
#: non-empty because an empty one deliberately shares the plan-free key.
ALTERNATIVES = {
    "num_runs": 9,
    "num_disks": 3,
    "strategy": PrefetchStrategy.INTER_RUN,
    "prefetch_depth": 4,
    "blocks_per_run": 60,
    "cache_capacity": 64,
    "synchronized": True,
    "cpu_ms_per_block": 0.5,
    "cache_policy": CachePolicy.GREEDY,
    "victim_selector": VictimSelector.NEAREST_HEAD,
    "disk": DiskParameters(seek_ms_per_cylinder=0.05),
    "geometry": DiskGeometry(cylinders=1000),
    "trials": 7,
    "base_seed": 7,
    "stream_across_requests": True,
    "queue_discipline": QueueDiscipline.SSTF,
    "write_disks": 1,
    "write_buffer_blocks": 3,
    "adaptive_depth": True,
    "fault_plan": transient_plan(0.1),
    "kernel": "reference",
}


def test_field_inventory_covers_the_dataclass_exactly():
    field_names = [f.name for f in dataclasses.fields(SimulationConfig)]
    assert sorted(ALTERNATIVES) == sorted(field_names)


@pytest.mark.parametrize("name", sorted(ALTERNATIVES))
def test_a_field_changes_the_key_unless_excluded(name):
    base = SimulationConfig(**BASE)
    changed = dataclasses.replace(base, **{name: ALTERNATIVES[name]})
    assert getattr(changed, name) != getattr(base, name)
    keyed = cache_key(changed, 7) != cache_key(base, 7)
    assert keyed is (name not in KEY_EXCLUDED_FIELDS)
