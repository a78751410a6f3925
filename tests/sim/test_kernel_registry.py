"""The kernel registry: the single source of truth for the kernel axis.

``SimulationConfig.kernel`` validation, ``create_kernel``, the CLI
``--kernel`` choices and the bench scenario variants all read the
:mod:`repro.sim.kernel` registry, so registering a kernel in one place
makes it available everywhere — and *un*known names fail with the same
actionable message everywhere.
"""

import pytest

from repro.core.parameters import SimulationConfig
from repro.sim import Simulator
from repro.sim.kernel import (
    KernelSpec,
    available_kernels,
    create_kernel,
    get_kernel,
    kernel_names,
    register_kernel,
    unregister_kernel,
)


@pytest.fixture
def scratch_kernel():
    """Register a throwaway kernel; always unregistered on exit."""
    spec = KernelSpec(
        name="scratch", factory=Simulator, description="test-only"
    )
    register_kernel(spec)
    yield spec
    unregister_kernel("scratch")


# ------------------------------------------------------------ built-ins


def test_builtin_kernels_present():
    assert kernel_names() == ["batch", "reference"]


def test_available_kernels_sorted_specs():
    specs = available_kernels()
    assert [spec.name for spec in specs] == kernel_names()
    assert all(isinstance(spec, KernelSpec) for spec in specs)
    assert all(spec.description for spec in specs)


def test_only_batch_kernel_has_a_batch_runner():
    runners = {
        spec.name: spec.batch_runner is not None
        for spec in available_kernels()
    }
    assert runners == {"reference": False, "batch": True}


def test_batch_runner_loads_lazily():
    from repro.sim.batch import run_trial_batch

    assert get_kernel("batch").batch_runner() is run_trial_batch


# -------------------------------------------------------- registration


def test_register_and_unregister(scratch_kernel):
    assert "scratch" in kernel_names()
    assert get_kernel("scratch") is scratch_kernel
    assert type(create_kernel("scratch")) is Simulator


def test_duplicate_registration_rejected(scratch_kernel):
    with pytest.raises(ValueError, match="already registered"):
        register_kernel(
            KernelSpec(name="scratch", factory=Simulator)
        )


def test_replace_overrides_existing(scratch_kernel):
    replacement = KernelSpec(
        name="scratch", factory=Simulator, description="v2"
    )
    register_kernel(replacement, replace=True)
    assert get_kernel("scratch").description == "v2"


def test_empty_name_rejected():
    with pytest.raises(ValueError, match="non-empty"):
        register_kernel(KernelSpec(name="", factory=Simulator))


def test_unregister_unknown_rejected():
    with pytest.raises(ValueError, match="not registered"):
        unregister_kernel("never-registered")


# ------------------------------------------------- unknown-name errors


def test_get_kernel_unknown_lists_choices():
    with pytest.raises(
        ValueError,
        match="unknown simulation kernel 'turbo': "
        "choose one of batch, reference",
    ):
        get_kernel("turbo")


def test_config_validation_reads_the_registry(scratch_kernel):
    # A config may name any registered kernel, not a hardcoded set.
    config = SimulationConfig(
        num_runs=4, num_disks=1, blocks_per_run=20, kernel="scratch"
    )
    assert config.kernel == "scratch"
    for name in ("warp", "fast"):
        with pytest.raises(ValueError, match="unknown simulation kernel"):
            SimulationConfig(num_runs=4, num_disks=1, kernel=name)


# ------------------------------------------------------------ CLI seam


def test_cli_kernel_choices_come_from_registry():
    import repro.cli as cli

    parser = cli._build_parser()
    args = parser.parse_args(["run", "--kernel", "batch", "fig-3.2a"])
    assert args.kernel == "batch"
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "--kernel", "turbo", "fig-3.2a"])
