"""Acceptance pins for the fault subsystem, through the public surfaces.

* ``repro run --faults`` with the bundled zero-fault plan reproduces
  the baseline numbers exactly;
* the bundled fail-slow plan strictly lengthens the merge for both
  prefetching strategies;
* the ``ext-degradation`` experiment and the fault CLI flags work end
  to end.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.parameters import PrefetchStrategy, SimulationConfig
from repro.api import configure
from repro.core.simulator import MergeSimulation
from repro.faults.plan import load_plan

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "fault_plans"


def _run(strategy: PrefetchStrategy, plan=None):
    config = SimulationConfig(
        num_runs=10,
        num_disks=5,
        strategy=strategy,
        prefetch_depth=5,
        blocks_per_run=60,
        trials=2,
        fault_plan=plan,
    )
    return MergeSimulation(config).run()


@pytest.mark.parametrize(
    "strategy", [PrefetchStrategy.INTRA_RUN, PrefetchStrategy.INTER_RUN]
)
def test_bundled_plans_zero_is_baseline_fail_slow_is_strictly_slower(strategy):
    baseline = _run(strategy)
    zero = _run(strategy, load_plan(EXAMPLES / "zero-faults.json"))
    slow = _run(strategy, load_plan(EXAMPLES / "one-slow-disk.json"))
    assert zero.to_dict() == baseline.to_dict()
    assert slow.total_time_s.mean > baseline.total_time_s.mean


def test_cli_run_with_zero_fault_plan_matches_plain_run(tmp_path, capsys):
    args = ["run", "ext-adaptive-depth", "--quick", "--trials", "1",
            "--blocks", "40"]
    assert main(args) == 0
    plain_out = capsys.readouterr().out
    assert main(args + ["--faults", str(EXAMPLES / "zero-faults.json")]) == 0
    faulted_out = capsys.readouterr().out
    # Identical report apart from the fault-plan banner line.
    banner, _, rest = faulted_out.partition("\n")
    assert "zero-faults.json" in banner
    assert rest == plain_out


def test_cli_simulate_accepts_fault_plan(capsys):
    code = main([
        "simulate", "-k", "6", "-D", "3", "--strategy", "inter-run",
        "-N", "3", "--blocks", "30", "--trials", "1",
        "--faults", str(EXAMPLES / "one-slow-disk.json"),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "faults=T0/S1/O0" in out
    assert "fault stall" in out


def test_cli_sweep_fault_rate_axis(tmp_path, capsys):
    code = main([
        "sweep", "-k", "6", "-D", "3", "--strategy", "intra-run",
        "-N", "3", "--blocks", "30", "--trials", "1",
        "--fault-rate", "0.0,0.3",
        "--cache-dir", str(tmp_path / "cache"),
        "--name", "fault-rate-test", "--quiet",
        "--export", str(tmp_path / "sweep.json"),
    ])
    assert code == 0
    exported = json.loads((tmp_path / "sweep.json").read_text())
    descriptions = [cell["config_description"] for cell in exported["cells"]]
    assert len(descriptions) == 2
    # The faulted cell announces its plan; the 0.0 cell is the baseline.
    assert sum("faults=T1" in d for d in descriptions) == 1


@pytest.mark.parametrize("command", [
    ["run", "ext-adaptive-depth", "--quick"],
    ["simulate", "-k", "6", "-D", "3", "--strategy", "inter-run",
     "-N", "3", "--blocks", "30", "--trials", "1"],
    ["sweep", "-k", "6", "-D", "3", "--strategy", "intra-run",
     "-N", "3", "--no-cache", "--quiet"],
])
def test_cli_bad_fault_plan_reports_cleanly(tmp_path, capsys, command):
    """Missing or malformed plan files: ``error: ...``, exit 2, no traceback."""
    missing = tmp_path / "nope.json"
    assert main(command + ["--faults", str(missing)]) == 2
    assert "error: cannot load fault plan" in capsys.readouterr().err
    malformed = tmp_path / "bad.json"
    malformed.write_text('{"transients": [{"drive": 0, "probability": 7}]}')
    assert main(command + ["--faults", str(malformed)]) == 2
    assert "error: cannot load fault plan" in capsys.readouterr().err


def test_experiment_registered_and_runs():
    from repro.experiments import Scale, get_experiment

    experiment = get_experiment("ext-degradation")
    scale = Scale(trials=1, blocks_per_run=30, sweep_density=0.34)
    result = experiment.run(scale)
    assert result.ok
    slow_table = result.tables[0]
    baseline = slow_table.rows[0]
    worst = slow_table.rows[-1]
    assert baseline[0] == 1.0  # severity axis starts at the healthy point
    # Time strictly grows with severity for both strategies.
    assert worst[1] > baseline[1]
    assert worst[3] > baseline[3]


def test_override_applies_to_experiment_configs():
    from repro.experiments import Scale, get_experiment

    scale = Scale(trials=1, blocks_per_run=30, sweep_density=0.2)
    experiment = get_experiment("ext-adaptive-depth")
    plain = experiment.run(scale)
    with configure(fault_plan=load_plan(EXAMPLES / "one-slow-disk.json")):
        faulted = experiment.run(scale)
    assert plain.ok and faulted.ok
    assert plain.render() != faulted.render()
