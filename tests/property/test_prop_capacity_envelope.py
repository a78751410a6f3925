"""Property-based soundness of the cache's capacity envelope.

A trial simulated at cache capacity ``C`` reports the capacities
``[lo, hi)`` that replay its trajectory.  For a capacity ``C'`` at
either end of that range, or far above it when ``hi`` is unbounded,
the trial re-labelled for ``C'`` (:func:`repro.experiments.memo.at_capacity`)
must equal a direct run at ``C'`` -- on both kernels, across the
strategies, planner paths, disk counts, depths, synchronization, CPU
cost, queue disciplines and native fault plans.
"""

import dataclasses

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.merge_sim import MergeTrial
from repro.core.parameters import (
    CachePolicy,
    PrefetchStrategy,
    SimulationConfig,
    VictimSelector,
)
from repro.disks.drive import QueueDiscipline
from repro.experiments.memo import at_capacity
from repro.faults.plan import (
    FaultPlan,
    OutageFault,
    fail_slow_plan,
    transient_plan,
)
from repro.sim import batch

#: Fault plans the batch interpreter runs natively, built for ``D``
#: drives: transients on one drive, fail-slow, a finite outage, and
#: flapping that drives the planner's degraded mode.
NATIVE_PLANS = [
    lambda d: None,
    lambda d: transient_plan(0.1, drives=(d - 1,)),
    lambda d: fail_slow_plan(d - 1, 3.0),
    lambda d: FaultPlan(
        outages=(OutageFault(drive=d - 1, start_ms=50.0, end_ms=300.0),)
    ),
    lambda d: transient_plan(0.3, drives=(0,), flap_threshold=2),
]


def _run(config: SimulationConfig, seed: int, kernel: str):
    if kernel == "reference":
        return MergeTrial(config, seed=seed).run()
    return batch.run_trial_batch(config, [seed])[0]


@st.composite
def trials(draw):
    num_disks = draw(st.integers(min_value=1, max_value=4))
    strategy = draw(st.sampled_from(list(PrefetchStrategy)))
    policy = draw(st.sampled_from(["conservative", "greedy", "adaptive"]))
    config = SimulationConfig(
        num_runs=draw(st.integers(min_value=2, max_value=8)),
        num_disks=num_disks,
        strategy=strategy,
        prefetch_depth=draw(st.integers(min_value=1, max_value=6)),
        blocks_per_run=draw(st.integers(min_value=2, max_value=25)),
        synchronized=draw(st.booleans()),
        cpu_ms_per_block=draw(st.sampled_from([0.0, 0.3])),
        cache_policy=(
            CachePolicy.GREEDY if policy == "greedy"
            else CachePolicy.CONSERVATIVE
        ),
        adaptive_depth=policy == "adaptive",
        victim_selector=draw(st.sampled_from(list(VictimSelector))),
        queue_discipline=draw(st.sampled_from(list(QueueDiscipline))),
        fault_plan=draw(st.sampled_from(NATIVE_PLANS))(num_disks),
        trials=1,
    )
    extra = draw(st.integers(min_value=0, max_value=60))
    config = dataclasses.replace(
        config, cache_capacity=config.minimum_cache_capacity + extra
    )
    seed = draw(st.integers(min_value=0, max_value=2**20))
    kernel = draw(st.sampled_from(["batch", "reference"]))
    return config, seed, kernel


@given(trials())
@settings(max_examples=150, deadline=None)
def test_envelope_capacities_replay_the_trajectory(case):
    config, seed, kernel = case
    try:
        metrics = _run(config, seed, kernel)
    except Exception:
        assume(False)  # a terminal fault: no trajectory to reuse
    envelope = metrics.capacity_envelope
    capacity = config.resolved_cache_capacity
    assert envelope.admits(capacity)
    assert metrics.cache_min_free == capacity - metrics.cache_peak_occupancy
    others = {envelope.lo}
    if envelope.hi is None:
        others.add(capacity + 1000)
    else:
        others.add(envelope.hi - 1)
    for other in others:
        resized = dataclasses.replace(config, cache_capacity=other)
        direct = _run(resized, seed, kernel)
        derived = at_capacity(metrics, resized)
        assert derived == direct
        assert derived.to_dict() == direct.to_dict()
        # The envelope is the trajectory's, whichever member ran it,
        # unless a read of the free space pinned it to one capacity.
        if envelope.hi != envelope.lo + 1:
            assert direct.capacity_envelope == envelope
