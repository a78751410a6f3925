"""RPR009 golden fixture: deprecated override shims vs RunContext."""

from repro.api import RunContext, configure
from repro.core import simulator
from repro.core.simulator import MergeSimulation
from repro.core.simulator import kernel_override  # expect: kernel_override
from repro.core.simulator import set_fault_plan_override as set_plan  # expect: set_fault_plan_override


def good_run_context(config):
    with configure(kernel="batch"):
        return MergeSimulation(config).run()


def good_explicit_context(config, plan):
    with RunContext(fault_plan=plan):
        return MergeSimulation(config).run()


def bad_context_manager(config):
    with kernel_override("batch"):  # attribute-free call: import flagged above
        return MergeSimulation(config).run()


def bad_attribute_call(config):
    with simulator.fault_plan_override(None):  # expect: fault_plan_override
        return MergeSimulation(config).run()


def bad_attribute_setter():
    set_plan(None)
    simulator.set_simulation_backend(None)  # expect: set_simulation_backend
