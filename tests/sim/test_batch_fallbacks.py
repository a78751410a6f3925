"""Every batch-tier fallback is counted, by reason.

:func:`repro.sim.batch.fallback_counts` is a process-wide tally, so
each test reads the change it causes rather than absolute values.
"""

import sys
import threading
from collections import Counter

import pytest

from repro import api
from repro.core.parameters import PrefetchStrategy, SimulationConfig
from repro.faults.injector import FaultExhaustedError
from repro.faults.plan import RetryPolicy, transient_plan
from repro.sim import TrialBudgetExceeded, batch


def _config(**overrides) -> SimulationConfig:
    fields = dict(
        num_runs=6,
        num_disks=2,
        strategy=PrefetchStrategy.INTER_RUN,
        prefetch_depth=4,
        blocks_per_run=30,
        kernel="batch",
    )
    fields.update(overrides)
    return SimulationConfig(**fields)


def _counted(run) -> Counter:
    """The fallbacks ``run()`` adds to the process-wide tally."""
    before = Counter(batch.fallback_counts())
    run()
    return Counter(batch.fallback_counts()) - before


def test_native_batch_counts_nothing():
    config = _config(fault_plan=transient_plan(0.1))
    assert _counted(lambda: api.run_trials([config] * 3, trials=[0, 1, 2])) == {}


@pytest.mark.parametrize(
    "plan, reason",
    [
        (
            transient_plan(0.1, demand_timeout_ms=20.0),
            "demand-read timeouts require the event kernel",
        ),
        (
            transient_plan(0.1, drives=(0, 1)),
            "transients on several drives (one shared fault stream)",
        ),
    ],
)
def test_unsupported_config_counts_its_reason_per_trial(plan, reason):
    config = _config(fault_plan=plan)
    assert batch.unsupported_reason(config) == reason
    counted = _counted(lambda: api.run_trials([config] * 2, trials=[0, 1]))
    assert counted == {reason: 2}


def test_divergence_then_efficiency_floor(monkeypatch):
    """A divergence re-runs its seed; below the floor the rest skip."""

    def diverge(self):
        raise batch.BatchDivergence("planted")

    monkeypatch.setattr(batch._FlatTrial, "run", diverge)
    config = _config()
    counted = _counted(lambda: api.run_trials([config] * 3, trials=[0, 1, 2]))
    assert counted == {"divergence": 1, "efficiency-floor": 2}


def test_terminal_fault_reruns_on_the_event_kernel():
    """The seed re-runs on the event kernel, which raises its error."""
    config = _config(
        fault_plan=transient_plan(0.5, retry=RetryPolicy(max_attempts=1))
    )

    def run() -> None:
        with pytest.raises(FaultExhaustedError, match="retry budget"):
            api.run_trials([config], trials=[0])

    assert _counted(run) == {"terminal-fault": 1}


def test_event_budget_exhaustion_reruns_on_the_event_kernel(monkeypatch):
    """The interpreter gives the seed up; the reference kernel raises."""
    monkeypatch.setattr(
        SimulationConfig, "event_budget", property(lambda self: 50)
    )
    config = _config()

    def run() -> None:
        with pytest.raises(TrialBudgetExceeded, match="budget of 50 events"):
            api.run_trials([config], trials=[0])

    assert _counted(run) == {"event-budget": 1}


def test_concurrent_counting_loses_no_update():
    """Sweep, serve and dist threads share the tally."""
    threads, per_thread = 8, 2000
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:

        def count() -> None:
            for _ in range(per_thread):
                batch._count_fallback("stress")

        before = batch.fallback_counts().get("stress", 0)
        workers = [threading.Thread(target=count) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
        assert not any(worker.is_alive() for worker in workers)
    finally:
        sys.setswitchinterval(previous)
    after = batch.fallback_counts()["stress"]
    assert after - before == threads * per_thread
