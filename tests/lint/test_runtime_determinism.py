"""The determinism invariant at runtime, not just statically (RPR001).

RPR001 proves simulation modules never *mention* wall clocks or ambient
entropy; this test proves they never *reach* them, by poisoning the
process-level sources and running the full merge-d5 bench scenario
(k=10 runs on D=5 disks, inter-run prefetch, N=10, 400 blocks/run,
2 trials, seed 1992) on both kernels.  Any call to a poisoned function
anywhere in the simulation fails the trial immediately.
"""

import os
import random
import time

import pytest

from repro.core.parameters import PrefetchStrategy, SimulationConfig
from repro.core.simulator import MergeSimulation

#: (module, attribute) pairs a deterministic simulation must never call.
_POISONED = [
    (time, "time"),
    (time, "time_ns"),
    (time, "perf_counter"),
    (time, "monotonic"),
    (random, "random"),
    (random, "seed"),
    (os, "urandom"),
]


def _poison(monkeypatch):
    for owner, name in _POISONED:
        def boom(*args, _label=f"{owner.__name__}.{name}", **kwargs):
            raise AssertionError(
                f"{_label}() called during a simulation; all randomness "
                "must come from seeded random_streams and time must be "
                "virtual"
            )
        monkeypatch.setattr(owner, name, boom)


def _merge_d5(kernel):
    return SimulationConfig(
        num_runs=10,
        num_disks=5,
        strategy=PrefetchStrategy.INTER_RUN,
        prefetch_depth=10,
        blocks_per_run=400,
        trials=2,
        base_seed=1992,
        kernel=kernel,
    )


@pytest.mark.parametrize("kernel", ["reference", "batch"])
def test_merge_d5_completes_with_poisoned_clocks_and_entropy(
    monkeypatch, kernel
):
    _poison(monkeypatch)
    result = MergeSimulation(_merge_d5(kernel)).run()
    assert len(result.trials) == 2
    assert result.total_time_s.mean > 0


def test_kernels_agree_bit_for_bit_even_while_poisoned(monkeypatch):
    _poison(monkeypatch)
    reference = MergeSimulation(_merge_d5("reference")).run()
    batched = MergeSimulation(_merge_d5("batch")).run()
    assert [trial.to_dict() for trial in reference.trials] == [
        trial.to_dict() for trial in batched.trials
    ]
