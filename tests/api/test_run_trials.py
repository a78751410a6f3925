"""repro.api.run_trials: the one trial-execution path.

Covers the keyword-only batch API the sweep, serve and dist workers all
route through: input validation, ambient option inheritance, batch
dispatch to kernels with a registered batch runner, and the per-trial
event budget.
"""

import dataclasses
import threading

import pytest

from repro import api
from repro.core.merge_sim import MergeTrial
from repro.core.parameters import (
    EVENTS_PER_BLOCK,
    PrefetchStrategy,
    SimulationConfig,
)
from repro.faults.plan import fail_slow_plan
from repro.sim import TrialBudgetExceeded


def _config(**overrides):
    base = dict(
        num_runs=6,
        num_disks=2,
        strategy=PrefetchStrategy.INTRA_RUN,
        prefetch_depth=4,
        blocks_per_run=30,
        trials=1,
    )
    base.update(overrides)
    return SimulationConfig(**base)


def _reference(config: SimulationConfig, trial: int = 0):
    reference = dataclasses.replace(config, kernel="reference")
    return MergeTrial(reference, seed=reference.base_seed + trial).run()


# ---------------------------------------------------------- validation


def test_positional_only_configs():
    with pytest.raises(TypeError):
        api.run_trials([_config()], [0])  # trials must be keyword


def test_trials_length_mismatch_rejected():
    with pytest.raises(ValueError, match="trials has 2 entries"):
        api.run_trials([_config()], trials=[0, 1])


def test_depletion_sources_length_mismatch_rejected():
    with pytest.raises(ValueError, match="depletion_sources has 0"):
        api.run_trials([_config()], depletion_sources=[])


def test_empty_batch_returns_empty():
    assert api.run_trials([]) == []


# ------------------------------------------------------------- results


def test_results_in_input_order_with_seeds():
    config = _config(trials=3)
    results = api.run_trials([config] * 3, trials=[2, 0, 1])
    for metrics, trial in zip(results, [2, 0, 1]):
        assert metrics.seed == config.base_seed + trial
        assert metrics.to_dict() == _reference(config, trial).to_dict()


def test_mixed_kernels_in_one_call():
    configs = [
        _config(kernel="reference"),
        _config(kernel="batch"),
    ]
    results = api.run_trials(configs)
    expected = _reference(_config()).to_dict()
    assert [m.to_dict() for m in results] == [expected] * 2


# ------------------------------------------------------ batch dispatch


def test_batch_kernel_groups_equal_configs(monkeypatch):
    """Equal batch-kernel configs reach the runner as one group."""
    from repro.sim import batch as batch_module

    calls = []
    real = batch_module.run_trial_batch

    def spy(config, seeds, **kwargs):
        calls.append(list(seeds))
        return real(config, seeds, **kwargs)

    monkeypatch.setattr(batch_module, "run_trial_batch", spy)
    config = _config(kernel="batch", trials=4)
    other = _config(kernel="batch", num_runs=8, trials=1)
    api.run_trials(
        [config, other, config, config], trials=[0, 0, 1, 3]
    )
    assert sorted(map(sorted, calls)) == [
        [config.base_seed],
        [config.base_seed, config.base_seed + 1, config.base_seed + 3],
    ]


def test_tracing_forces_per_trial_execution(monkeypatch):
    """An ambient trace session bypasses the (trace-less) batch tier."""
    from repro.sim import batch as batch_module

    def explode(*args, **kwargs):  # pragma: no cover - failure branch
        raise AssertionError("batch runner used while tracing")

    monkeypatch.setattr(batch_module, "run_trial_batch", explode)
    config = _config(kernel="batch")
    with api.configure(trace=True) as context:
        results = api.run_trials([config])
    assert results[0].to_dict() == _reference(_config()).to_dict()
    assert context.trace.total_events > 0


# ------------------------------------------------ ambient inheritance


def test_ambient_kernel_rewrites_configs():
    config = _config()  # kernel="reference"
    with api.configure(kernel="batch"):
        results = api.run_trials([config] * 2, trials=[0, 0])
    assert [m.to_dict() for m in results] == [
        _reference(config).to_dict()
    ] * 2


def test_ambient_fault_plan_applies_to_plan_free_configs():
    plan = fail_slow_plan(drive=0, factor=4.0)
    config = _config()
    with api.configure(fault_plan=plan):
        faulted = api.run_trials([config])[0]
    expected = MergeTrial(
        dataclasses.replace(config, fault_plan=plan),
        seed=config.base_seed,
    ).run()
    assert faulted.to_dict() == expected.to_dict()
    assert faulted.to_dict() != _reference(config).to_dict()


# ------------------------------------------------------- event budgets


def _planted_budget(monkeypatch, budget: int = 50) -> None:
    """Shrink every config's event budget so real trials run away."""
    monkeypatch.setattr(
        SimulationConfig, "event_budget", property(lambda self: budget)
    )


def _budget_error(run) -> TrialBudgetExceeded:
    with pytest.raises(TrialBudgetExceeded) as raised:
        run()
    return raised.value


@pytest.mark.parametrize("where", ["reference", "batch", "thread"])
def test_planted_runaway_raises_budget_error(where, monkeypatch):
    """A runaway fails the same way on every kernel and thread.

    ``thread`` runs the batch kernel off the main thread, where no
    wall-clock signal could ever reach the trial.
    """
    _planted_budget(monkeypatch)
    expected = _budget_error(lambda: _reference(_config()))
    assert str(expected) == "simulation exceeded its event budget of 50 events"
    kernel = "reference" if where == "reference" else "batch"
    config = _config(kernel=kernel)
    if where != "thread":
        error = _budget_error(lambda: api.run_trials([config]))
    else:
        outcome: list[BaseException] = []

        def target() -> None:
            try:
                api.run_trials([config])
            except BaseException as exc:  # handed back to the test
                outcome.append(exc)

        thread = threading.Thread(target=target)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert len(outcome) == 1
        error = outcome[0]
    assert type(error) is TrialBudgetExceeded
    assert str(error) == str(expected)


def test_real_configs_stay_within_their_budget():
    config = _config(kernel="batch")
    assert config.event_budget == EVENTS_PER_BLOCK * (180 + 2)
    results = api.run_trials([config])
    assert results[0].to_dict() == _reference(_config()).to_dict()
