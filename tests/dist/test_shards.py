"""Shard expansion and the job wire format."""

import pytest

from repro.dist.shards import job_from_wire, job_wire, make_shards
from repro.sweep.keys import cache_key, config_from_dict
from repro.sweep.spec import SweepSpec

SPEC = SweepSpec(
    name="shards",
    base={"num_runs": 4, "blocks_per_run": 10},
    grid={"num_disks": [1, 2], "prefetch_depth": [1, 2]},
    trials=3,
    base_seed=5,
)


def test_shards_are_contiguous_and_cover_everything():
    jobs = SPEC.jobs()
    shards = make_shards(jobs, 5)
    flattened = [job for shard in shards for job in shard.jobs]
    assert flattened == jobs
    assert [len(s) for s in shards] == [5, 5, 2]  # 12 jobs
    assert [s.shard_id for s in shards] == [
        "shard-0000", "shard-0001", "shard-0002"
    ]


def test_sharding_is_deterministic():
    assert make_shards(SPEC.jobs(), 4) == make_shards(SPEC.jobs(), 4)


def test_shard_size_validation():
    with pytest.raises(ValueError):
        make_shards(SPEC.jobs(), 0)


def test_job_wire_round_trip_preserves_key_derivation():
    """The wire config rebuilds to the same content address."""
    for job in SPEC.jobs():
        wire = job_wire(job)
        rebuilt = job_from_wire(wire)
        config = config_from_dict(rebuilt["config"])
        seed = config.base_seed + rebuilt["trial"]
        assert cache_key(config, seed) == wire["key"] == job.key
        assert rebuilt["index"] == job.index
        assert rebuilt["cell"] == job.cell


def test_job_from_wire_rejects_missing_fields():
    wire = job_wire(SPEC.jobs()[0])
    del wire["key"]
    with pytest.raises(ValueError, match="key"):
        job_from_wire(wire)
