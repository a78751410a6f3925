"""Cross-validation: every registered kernel is bit-identical to the reference.

This is the contract that makes the ``kernel`` axis safe everywhere —
experiments, sweeps (shared cache entries!), fault studies: for any
configuration and seed, every kernel in the :mod:`repro.sim.kernel`
registry produces byte-for-byte equal ``MergeMetrics.to_dict()``
output.  The ``batch`` kernel additionally proves its flattened
group-execution path (`repro.api.run_trials` routes whole trial groups
through :func:`repro.sim.batch.run_trial_batch`) against the same bar.
A trial that fails on an injected fault must fail the same way — the
same exception type and message — on every kernel.
"""

import dataclasses

import pytest

from repro import api
from repro.api import configure
from repro.core.parameters import (
    CachePolicy,
    PrefetchStrategy,
    SimulationConfig,
    VictimSelector,
)
from repro.core.simulator import MergeSimulation
from repro.disks.drive import QueueDiscipline
from repro.faults.plan import (
    FaultPlan,
    OutageFault,
    RetryPolicy,
    fail_slow_plan,
    transient_plan,
)
from repro.core.merge_sim import MergeTrial
from repro.sim import KERNELS, Simulator, batch


def _outcome(run) -> object:
    """``run()``'s result, or the (type, message) of its failure."""
    try:
        return run()
    except Exception as exc:
        return (type(exc), str(exc))


def _trial_dict(config: SimulationConfig, kernel: str, trial: int = 0):
    config = dataclasses.replace(config, kernel=kernel)
    return _outcome(
        lambda: MergeSimulation(config).run_trial(trial=trial).to_dict()
    )


#: Every kernel that is *not* the baseline itself.
NON_REFERENCE = [name for name in KERNELS if name != "reference"]

#: Fault plans inside the batch tier's native envelope: transients on
#: one of five drives, fail-slow, a finite outage, and flapping that
#: drives the planner's degraded mode (with nearest-head victims, so
#: mid-service head moves after failed attempts are observed too).
NATIVE_FAULT_CONFIGS = [
    SimulationConfig(
        num_runs=10,
        num_disks=5,
        strategy=PrefetchStrategy.INTER_RUN,
        prefetch_depth=10,
        blocks_per_run=50,
        fault_plan=transient_plan(0.1),
    ),
    SimulationConfig(
        num_runs=8,
        num_disks=4,
        strategy=PrefetchStrategy.INTRA_RUN,
        prefetch_depth=5,
        blocks_per_run=40,
        fault_plan=fail_slow_plan(1, 3.0),
    ),
    SimulationConfig(
        num_runs=8,
        num_disks=4,
        strategy=PrefetchStrategy.INTER_RUN,
        prefetch_depth=4,
        blocks_per_run=40,
        fault_plan=FaultPlan(
            outages=(OutageFault(drive=2, start_ms=50.0, end_ms=400.0),)
        ),
    ),
    SimulationConfig(
        num_runs=10,
        num_disks=5,
        strategy=PrefetchStrategy.INTER_RUN,
        prefetch_depth=6,
        blocks_per_run=50,
        victim_selector=VictimSelector.NEAREST_HEAD,
        fault_plan=transient_plan(0.3, flap_threshold=2),
    ),
]

#: A deliberately diverse configuration matrix: every strategy family,
#: single and multi disk, sync and async, SSTF scheduling, CPU cost,
#: streamed sequential requests, the native fault plans above, and the
#: fault plans the batch tier hands back to the reference kernel:
#: transients on two drives, a demand timeout, an exhausted retry
#: budget and a permanent outage (the last two fail every trial).
MATRIX = [
    SimulationConfig(num_runs=6, num_disks=1, blocks_per_run=40),
    SimulationConfig(
        num_runs=8,
        num_disks=1,
        strategy=PrefetchStrategy.INTRA_RUN,
        prefetch_depth=6,
        blocks_per_run=50,
    ),
    SimulationConfig(
        num_runs=10,
        num_disks=5,
        strategy=PrefetchStrategy.INTER_RUN,
        prefetch_depth=10,
        blocks_per_run=60,
    ),
    SimulationConfig(
        num_runs=10,
        num_disks=5,
        strategy=PrefetchStrategy.INTER_RUN,
        prefetch_depth=10,
        blocks_per_run=60,
        synchronized=True,
    ),
    SimulationConfig(
        num_runs=8,
        num_disks=4,
        strategy=PrefetchStrategy.INTRA_RUN,
        prefetch_depth=4,
        blocks_per_run=40,
        cpu_ms_per_block=0.5,
        queue_discipline=QueueDiscipline.SSTF,
    ),
    SimulationConfig(
        num_runs=8,
        num_disks=4,
        strategy=PrefetchStrategy.INTRA_RUN,
        prefetch_depth=5,
        blocks_per_run=40,
        stream_across_requests=True,
    ),
    *NATIVE_FAULT_CONFIGS,
    SimulationConfig(
        num_runs=8,
        num_disks=4,
        strategy=PrefetchStrategy.INTER_RUN,
        prefetch_depth=4,
        blocks_per_run=40,
        fault_plan=transient_plan(0.2, drives=(0, 2)),
    ),
    SimulationConfig(
        num_runs=8,
        num_disks=4,
        strategy=PrefetchStrategy.INTER_RUN,
        prefetch_depth=4,
        blocks_per_run=40,
        fault_plan=fail_slow_plan(1, 3.0, demand_timeout_ms=20.0),
    ),
    SimulationConfig(
        num_runs=6,
        num_disks=2,
        strategy=PrefetchStrategy.INTER_RUN,
        prefetch_depth=4,
        blocks_per_run=40,
        fault_plan=transient_plan(0.5, retry=RetryPolicy(max_attempts=1)),
    ),
    SimulationConfig(
        num_runs=6,
        num_disks=2,
        strategy=PrefetchStrategy.INTRA_RUN,
        prefetch_depth=4,
        blocks_per_run=40,
        fault_plan=FaultPlan(outages=(OutageFault(drive=1, start_ms=100.0),)),
    ),
]


_INTER_RUN = SimulationConfig(
    num_runs=10,
    num_disks=5,
    strategy=PrefetchStrategy.INTER_RUN,
    prefetch_depth=6,
    blocks_per_run=50,
)
#: Cache of the initial load plus 25 blocks: fewer than ``D*N = 30``
#: free after a stall, so plans go partial.
_SQUEEZED = _INTER_RUN.minimum_cache_capacity + 25

#: One fault-free row per inter-run planner path the rows above leave
#: out (``describe()`` does not name policy, selector or adaptivity,
#: hence explicit ids).
PLANNER_ROWS = [
    pytest.param(
        dataclasses.replace(
            _INTER_RUN,
            cache_policy=CachePolicy.GREEDY,
            cache_capacity=_SQUEEZED,
        ),
        id="greedy",
    ),
    pytest.param(
        dataclasses.replace(
            _INTER_RUN, adaptive_depth=True, cache_capacity=_SQUEEZED
        ),
        id="adaptive-depth",
    ),
    *(
        pytest.param(
            dataclasses.replace(_INTER_RUN, victim_selector=selector),
            id=f"victims-{selector.value}",
        )
        for selector in (
            VictimSelector.ROUND_ROBIN,
            VictimSelector.MOST_DEPLETED,
            VictimSelector.NEAREST_HEAD,
        )
    ),
    pytest.param(
        dataclasses.replace(
            _INTER_RUN, cache_capacity=_INTER_RUN.minimum_cache_capacity
        ),
        id="minimum-cache",
    ),
]


@pytest.mark.parametrize("kernel", NON_REFERENCE)
@pytest.mark.parametrize(
    "config", [*MATRIX, *PLANNER_ROWS], ids=lambda c: c.describe()
)
@pytest.mark.parametrize("seed", [1, 1992])
def test_kernel_bit_identical(config, kernel, seed):
    config = dataclasses.replace(config, base_seed=seed)
    assert _trial_dict(config, kernel) == _trial_dict(config, "reference")


@pytest.mark.parametrize(
    "config", [*MATRIX, *PLANNER_ROWS], ids=lambda c: c.describe()
)
def test_kernels_report_the_same_capacity_envelope(config):
    """The envelope is outside equality and to_dict(), so it gets its
    own check: both kernels observe the cache identically."""

    def envelope(kernel):
        trial = dataclasses.replace(config, kernel=kernel)
        return _outcome(
            lambda: MergeSimulation(trial).run_trial().capacity_envelope
        )

    assert envelope("batch") == envelope("reference")


def test_batch_idles_drives_in_reference_order(monkeypatch):
    """Drives idled in one time advance reach the concurrency tracker
    in time order, whichever drive the advance visited first."""
    calls: list[tuple[float, int, bool]] = []

    class RecordingTracker(batch.ConcurrencyTracker):
        def on_busy_change(self, disk, busy):
            calls.append((self.sim.now, disk, busy))
            super().on_busy_change(disk, busy)

    idled_per_advance: list[int] = []
    advance = batch._FlatTrial._advance

    def counting_advance(self, limit, arrivals_at_limit):
        before = len(calls)
        advance(self, limit, arrivals_at_limit)
        idled_per_advance.append(len(calls) - before)

    monkeypatch.setattr(batch, "ConcurrencyTracker", RecordingTracker)
    monkeypatch.setattr(batch._FlatTrial, "_advance", counting_advance)
    config = SimulationConfig(
        num_runs=10,
        num_disks=5,
        strategy=PrefetchStrategy.INTER_RUN,
        prefetch_depth=6,
        blocks_per_run=40,
        synchronized=True,
    )
    flat = batch._FlatTrial(batch._Shared(config), 7).run()
    assert max(idled_per_advance) >= 2
    times = [when for when, _, _ in calls]
    assert times == sorted(times)
    assert flat.to_dict() == MergeTrial(config, seed=7).run().to_dict()


@pytest.mark.parametrize("kernel", NON_REFERENCE)
def test_kernel_identical_across_trials(kernel):
    config = SimulationConfig(
        num_runs=8,
        num_disks=3,
        strategy=PrefetchStrategy.INTER_RUN,
        prefetch_depth=6,
        blocks_per_run=40,
        trials=3,
    )
    for trial in range(config.trials):
        assert _trial_dict(config, kernel, trial) == _trial_dict(
            config, "reference", trial
        )


def _assert_batch_matches_reference(config, trials) -> None:
    """A ``run_trials`` group on batch against per-trial reference runs.

    A failing group raises its first failing trial's error, so that is
    what the reference outcome must be.
    """
    batch_config = dataclasses.replace(config, kernel="batch")
    grouped = _outcome(
        lambda: [
            metrics.to_dict()
            for metrics in api.run_trials(
                [batch_config] * len(trials), trials=trials
            )
        ]
    )
    expected = [_trial_dict(config, "reference", trial) for trial in trials]
    failures = [outcome for outcome in expected if isinstance(outcome, tuple)]
    assert grouped == (failures[0] if failures else expected)


@pytest.mark.parametrize(
    "config", [*MATRIX, *PLANNER_ROWS], ids=lambda c: c.describe()
)
def test_batch_group_execution_bit_identical(config):
    """Whole-group batch dispatch matches per-trial reference runs."""
    _assert_batch_matches_reference(config, [0, 1, 2])


@pytest.mark.parametrize(
    "config", NATIVE_FAULT_CONFIGS, ids=lambda c: c.describe()
)
def test_batch_runs_fault_plans_natively(config, monkeypatch):
    """Fault plans stay on the flattened path, bit-identical.

    With the reference-kernel fallback disabled the group can only pass by
    running every trial natively.
    """

    def no_fallback(*args, **kwargs):
        raise AssertionError("batch trial fell back to the event kernel")

    monkeypatch.setattr(batch, "_fallback_trial", no_fallback)
    _assert_batch_matches_reference(config, [0, 1, 2, 3])


def test_native_fault_configs_exercise_the_fault_paths():
    """The native cases really retry, back off, wait out outages and
    skip degraded drives (else the test above proves little)."""
    configs = [
        dataclasses.replace(config, kernel="batch")
        for config in NATIVE_FAULT_CONFIGS
    ]
    transient, slow, outage, flapping = (
        api.run_trials([config] * 2, trials=[0, 1]) for config in configs
    )
    assert sum(d.retries for m in transient for d in m.drive_stats) > 0
    assert all(m.fault_stall_ms > 0 for m in slow)
    assert sum(d.outage_wait_ms for m in outage for d in m.drive_stats) > 0
    assert sum(m.degraded_skips for m in flapping) > 0


def test_unknown_kernel_rejected_by_config():
    # "fast" names the retired event kernel; no alias keeps it alive.
    for name in ("turbo", "fast"):
        with pytest.raises(
            ValueError, match="unknown simulation kernel.*batch, reference"
        ):
            SimulationConfig(num_runs=4, num_disks=1, kernel=name)


def test_unknown_kernel_rejected_by_factory():
    # An ambient kernel override is validated when run_trials applies it.
    config = SimulationConfig(num_runs=4, num_disks=1, blocks_per_run=20)
    with configure(kernel="turbo"):
        with pytest.raises(
            ValueError, match="choose one of batch, reference"
        ):
            api.run_trials([config])


def test_kernel_registry():
    assert KERNELS == ("reference", "batch")
    # A per-trial run (the batch tier's fallback path included) is on
    # the reference simulator whatever the kernel; the batched entry is
    # the flattened runner (see repro.sim.batch).
    for kernel in KERNELS:
        config = SimulationConfig(
            num_runs=4, num_disks=1, blocks_per_run=20, kernel=kernel
        )
        assert type(MergeTrial(config, seed=0).sim) is Simulator


def test_kernel_context_rewrites_config():
    config = SimulationConfig(num_runs=4, num_disks=1, blocks_per_run=20)
    assert config.kernel == "batch"  # the default
    assert MergeSimulation(config).config.kernel == "batch"
    with configure(kernel="reference"):
        assert MergeSimulation(config).config.kernel == "reference"
    assert MergeSimulation(config).config.kernel == "batch"


def test_kernel_context_preserves_results():
    config = SimulationConfig(
        num_runs=6,
        num_disks=2,
        strategy=PrefetchStrategy.INTRA_RUN,
        prefetch_depth=4,
        blocks_per_run=30,
        trials=2,
    )
    baseline = MergeSimulation(config).run()
    with configure(kernel="reference"):
        overridden = MergeSimulation(config).run()
    assert [t.to_dict() for t in overridden.trials] == [
        t.to_dict() for t in baseline.trials
    ]
