"""RunContext/configure: the single ambient-override surface.

One context manager composes the four ambient options (backend,
fault_plan, kernel, trace); the old per-option setters and context
managers in repro.core.simulator have been removed.
"""

import pytest

from repro import api
from repro.api import UNSET, RunContext, configure
from repro.core.parameters import SimulationConfig
from repro.core.simulator import MergeSimulation
from repro.faults.plan import FaultPlan, fail_slow_plan
from repro.obs import TraceSession


@pytest.fixture(autouse=True)
def _clean_ambient_state():
    """Every test starts and ends with no ambient overrides."""
    saved = {name: api._state[name] for name in api._FIELDS}
    api._state.update({name: None for name in api._FIELDS})
    yield
    api._state.update(saved)


def _config(**overrides):
    base = dict(num_runs=4, num_disks=2, blocks_per_run=20, trials=1)
    base.update(overrides)
    return SimulationConfig(**base)


# ---------------------------------------------------------------- basics


def test_configure_returns_run_context():
    assert isinstance(configure(kernel="batch"), RunContext)


def test_context_sets_and_restores_kernel():
    assert api.current_kernel() is None
    with configure(kernel="batch"):
        assert api.current_kernel() == "batch"
    assert api.current_kernel() is None


def test_context_sets_and_restores_fault_plan():
    plan = fail_slow_plan(drive=0, factor=2.0)
    with configure(fault_plan=plan):
        assert api.current_fault_plan() is plan
    assert api.current_fault_plan() is None


def test_options_compose_in_one_context():
    plan = FaultPlan()
    with configure(kernel="batch", fault_plan=plan, trace=True) as context:
        assert api.current_kernel() == "batch"
        assert api.current_fault_plan() is plan
        assert api.current_trace() is context.trace
    assert api.current_trace() is None


def test_unknown_option_rejected():
    with pytest.raises(TypeError):
        configure(kern="batch")


# ------------------------------------------------------- UNSET vs None


def test_unset_options_inherit_enclosing_scope():
    with configure(kernel="batch"):
        with configure(fault_plan=FaultPlan()):
            # kernel untouched by the inner scope
            assert api.current_kernel() == "batch"
        assert api.current_kernel() == "batch"


def test_explicit_none_clears_for_the_scope():
    plan = FaultPlan()
    with configure(fault_plan=plan):
        with configure(fault_plan=None):
            assert api.current_fault_plan() is None
        assert api.current_fault_plan() is plan


def test_nested_contexts_restore_in_order():
    with configure(kernel="reference"):
        with configure(kernel="batch"):
            assert api.current_kernel() == "batch"
        assert api.current_kernel() == "reference"
    assert api.current_kernel() is None


def test_unset_sentinel_is_not_a_value():
    context = RunContext(kernel=UNSET, fault_plan=UNSET, trace=UNSET)
    with context:
        assert api.current_kernel() is None
        assert api.current_fault_plan() is None
        assert api.current_trace() is None


# ------------------------------------------------------------- tracing


def test_trace_true_creates_fresh_session():
    with configure(trace=True) as context:
        assert isinstance(context.trace, TraceSession)
        assert api.current_trace() is context.trace


def test_trace_accepts_existing_session():
    session = TraceSession(name="mine")
    with configure(trace=session) as context:
        assert context.trace is session
        assert api.current_trace() is session


def test_trace_false_disables_for_the_scope():
    with configure(trace=True):
        with configure(trace=False):
            assert api.current_trace() is None


def test_traced_simulation_records_one_trial_per_run():
    with configure(trace=True) as context:
        MergeSimulation(_config()).run()
    assert len(context.trace.trials) == 1
    assert context.trace.total_events > 0


# ------------------------------------------------- effect on simulations


def test_ambient_kernel_rewrites_config():
    config = _config()
    assert config.kernel == "batch"  # the default
    assert MergeSimulation(config).config.kernel == "batch"
    with configure(kernel="reference"):
        assert MergeSimulation(config).config.kernel == "reference"
    assert MergeSimulation(config).config.kernel == "batch"


def test_explicit_fault_plan_wins_over_ambient():
    pinned = _config(fault_plan=FaultPlan())
    ambient = fail_slow_plan(drive=0, factor=6.0)
    with configure(fault_plan=ambient):
        simulation = MergeSimulation(pinned)
    assert simulation.config.fault_plan is pinned.fault_plan


def test_backend_receives_the_resolved_config():
    # MergeSimulation hands self.config to the ambient backend (and the
    # sweep engine keys its cache on it), so the ambient plan and
    # kernel must already be folded in by then.
    plan = fail_slow_plan(drive=0, factor=2.0)
    seen = []

    def recorder(config):
        seen.append(config)
        return None

    with configure(fault_plan=plan, kernel="reference", backend=recorder):
        MergeSimulation(_config()).run()
    assert len(seen) == 1
    assert seen[0].fault_plan is plan
    assert seen[0].kernel == "reference"


# -------------------------------------------------- retired shims stay gone


def test_override_shims_are_retired():
    # The six per-option setters/context managers were removed once
    # RunContext/configure became the only ambient surface.  Keep them
    # gone: a reappearance would split ambient state again.
    from repro.core import simulator

    for name in (
        "set_simulation_backend",
        "simulation_backend",
        "set_fault_plan_override",
        "fault_plan_override",
        "set_kernel_override",
        "kernel_override",
    ):
        assert not hasattr(simulator, name), name
