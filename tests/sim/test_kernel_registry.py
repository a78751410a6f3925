"""The kernel axis: ``KERNELS`` is the single source of truth.

``SimulationConfig.kernel`` validation, the CLI ``--kernel`` choices
and the benchmark harness all read :data:`repro.sim.kernel.KERNELS`,
and :func:`repro.api.run_trials` is the one place that decides which
trials go to the batch interpreter.  Unknown names fail with the same
actionable message everywhere.
"""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import api
from repro.bench import harness
from repro.core.parameters import SimulationConfig
from repro.sim import KERNELS, batch

SMALL = SimulationConfig(num_runs=4, num_disks=1, blocks_per_run=20)


# ------------------------------------------------------------ built-ins


def test_builtin_kernels_present():
    assert KERNELS == ("reference", "batch")
    assert harness.KERNELS is KERNELS


def test_only_batch_kernel_has_a_batch_runner(monkeypatch):
    seen = []
    original = batch.run_trial_batch

    def spy(config, seeds):
        seen.append((config.kernel, list(seeds)))
        return original(config, seeds)

    monkeypatch.setattr(batch, "run_trial_batch", spy)
    configs = [
        dataclasses.replace(SMALL, kernel=kernel)
        for kernel in ("reference", "batch", "reference", "batch")
    ]
    results = api.run_trials(configs, trials=[0, 1, 2, 3])
    assert seen == [("batch", [SMALL.base_seed + 1, SMALL.base_seed + 3])]
    assert len(results) == 4 and all(results)


def test_batch_runner_loads_lazily():
    # Importing the package and the CLI, validating a config and
    # running a reference trial never load the batch interpreter.
    script = (
        "import sys\n"
        "import repro, repro.cli\n"
        "from repro.core.parameters import SimulationConfig\n"
        "from repro.api import run_trials\n"
        "config = SimulationConfig(num_runs=4, num_disks=1,\n"
        "                          blocks_per_run=20, kernel='reference')\n"
        "run_trials([config])\n"
        "assert 'repro.sim.batch' not in sys.modules\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    subprocess.run(
        [sys.executable, "-c", script], env=env, check=True, timeout=120
    )


# ------------------------------------------------- unknown-name errors


def test_get_kernel_unknown_lists_choices():
    with pytest.raises(
        ValueError,
        match="unknown simulation kernel 'turbo': "
        "choose one of batch, reference",
    ):
        SimulationConfig(num_runs=4, num_disks=1, kernel="turbo")


def test_config_validation_reads_the_registry():
    for name in KERNELS:
        assert dataclasses.replace(SMALL, kernel=name).kernel == name
    for name in ("warp", "fast"):
        with pytest.raises(ValueError, match="unknown simulation kernel"):
            SimulationConfig(num_runs=4, num_disks=1, kernel=name)


# ------------------------------------------------------------ CLI seam


def test_cli_kernel_choices_come_from_registry():
    import repro.cli as cli

    parser = cli._build_parser()
    for name in KERNELS:
        args = parser.parse_args(["run", "--kernel", name, "fig-3.2a"])
        assert args.kernel == name
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "--kernel", "turbo", "fig-3.2a"])
