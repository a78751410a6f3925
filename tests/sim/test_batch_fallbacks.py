"""Every batch-tier fallback names its reason on the trial's result.

A batch-kernel trial that runs on the reference kernel instead of the
interpreter carries why in :attr:`MergeMetrics.fallback`; a native
trial carries ``None``.
"""

from collections import Counter

import pytest

from repro import api
from repro.core.parameters import PrefetchStrategy, SimulationConfig
from repro.experiments import Scale
from repro.experiments.ablations import (
    ablation_depletion_model,
    ext_skewed_depletion,
)
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


def _fallbacks(results) -> list:
    return [metrics.fallback for metrics in results]


def test_native_batch_counts_nothing():
    config = _config(fault_plan=transient_plan(0.1))
    results = api.run_trials([config] * 3, trials=[0, 1, 2])
    assert _fallbacks(results) == [None, None, None]


def test_reference_kernel_trials_are_not_fallbacks():
    config = _config(kernel="reference", write_disks=1)
    assert _fallbacks(api.run_trials([config] * 2, trials=[0, 1])) == [
        None, None,
    ]


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
    results = api.run_trials([config] * 2, trials=[0, 1])
    assert _fallbacks(results) == [reason, reason]


def test_each_diverging_seed_reruns_on_the_reference_kernel(monkeypatch):
    """Every seed that diverges re-runs on the reference kernel."""

    def diverge(self):
        raise batch.BatchDivergence("planted")

    monkeypatch.setattr(batch._FlatTrial, "run", diverge)
    config = _config()
    results = api.run_trials([config] * 3, trials=[0, 1, 2])
    assert _fallbacks(results) == ["divergence"] * 3


def _record_reruns(monkeypatch) -> list:
    """The reasons the batch tier hands seeds to the reference kernel."""
    reruns = []
    rerun = batch._fallback_trial

    def record(config, seed, reason):
        reruns.append(reason)
        return rerun(config, seed, reason)

    monkeypatch.setattr(batch, "_fallback_trial", record)
    return reruns


def test_terminal_fault_reruns_on_the_event_kernel(monkeypatch):
    """The seed re-runs on the event kernel, which raises its error."""
    config = _config(
        fault_plan=transient_plan(0.5, retry=RetryPolicy(max_attempts=1))
    )
    reruns = _record_reruns(monkeypatch)
    with pytest.raises(FaultExhaustedError, match="retry budget"):
        api.run_trials([config], trials=[0])
    assert reruns == ["terminal-fault"]


def test_event_budget_exhaustion_reruns_on_the_event_kernel(monkeypatch):
    """The interpreter gives the seed up; the reference kernel raises."""
    monkeypatch.setattr(
        SimulationConfig, "event_budget", property(lambda self: 50)
    )
    config = _config()
    reruns = _record_reruns(monkeypatch)
    with pytest.raises(TrialBudgetExceeded, match="budget of 50 events"):
        api.run_trials([config], trials=[0])
    assert reruns == ["event-budget"]


def test_traced_trials_count_as_traced():
    """An ambient trace session keeps batch trials on the event kernel."""
    config = _config()
    with api.configure(trace=True):
        results = api.run_trials([config] * 2, trials=[0, 1])
    assert _fallbacks(results) == ["traced", "traced"]


def test_depletion_source_counts_only_its_trial():
    config = _config()
    order = iter([run for _ in range(30) for run in range(6)])
    results = api.run_trials([config] * 2, depletion_sources=[order, None])
    assert _fallbacks(results) == ["depletion-source", None]


@pytest.mark.parametrize(
    "experiment, trials",
    [
        # One trace-driven trial per key distribution (the random
        # model's trials run natively).
        (ablation_depletion_model, 4),
        # Four skews x three strategies, one trial each.
        (ext_skewed_depletion, 4 * 3),
    ],
)
def test_depletion_source_experiments_count_every_trial(
    experiment, trials, monkeypatch
):
    """Both experiments that replay a depletion order fall back."""
    counted: Counter = Counter()
    run_trials = api.run_trials

    def census(*args, **kwargs):
        results = run_trials(*args, **kwargs)
        counted.update(m.fallback for m in results if m.fallback)
        return results

    monkeypatch.setattr(api, "run_trials", census)
    experiment(Scale(trials=1, blocks_per_run=30, sweep_density=0.5))
    assert counted == {"depletion-source": trials}


def test_out_of_order_arrival_slice_diverges(monkeypatch):
    """A request slice folded out of order trips the bulk fold's guard;
    the seed re-runs on the reference kernel."""
    from repro.core.merge_sim import MergeTrial

    schedule = batch._schedule

    def misnumbered(drive, request, when, transfer):
        finish = schedule(drive, request, when, transfer)
        request.first_block += 1  # the slice now claims the next blocks
        return finish

    monkeypatch.setattr(batch, "_schedule", misnumbered)
    config = _config()
    with pytest.raises(batch.BatchDivergence, match="out of order"):
        batch._FlatTrial(batch._Shared(config), 3).run()

    results = batch.run_trial_batch(config, [3])
    assert _fallbacks(results) == ["divergence"]
    assert [m.to_dict() for m in results] == [
        MergeTrial(config, seed=3).run().to_dict()
    ]
