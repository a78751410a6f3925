"""The contracts that make tracing trustworthy.

1. Tracing is an observer: enabling it leaves ``MergeMetrics`` output
   byte-for-byte identical.
2. Both kernels narrate the same story: identical configs and seeds
   produce identical event streams from ``reference`` and ``batch``.
3. Busy accounting closes: per-drive service spans sum to the drive's
   ``DriveStats.busy_ms`` within 1e-6 ms.
"""

import dataclasses

import pytest

from repro.api import configure
from repro.core.parameters import PrefetchStrategy, SimulationConfig
from repro.core.simulator import MergeSimulation
from repro.faults.plan import fail_slow_plan, transient_plan
from repro.obs import BusySpanDrift, TrialTrace, check_busy_spans

MATRIX = [
    SimulationConfig(num_runs=6, num_disks=1, blocks_per_run=30),
    SimulationConfig(
        num_runs=8,
        num_disks=3,
        strategy=PrefetchStrategy.INTRA_RUN,
        prefetch_depth=4,
        blocks_per_run=30,
        cpu_ms_per_block=0.5,
    ),
    SimulationConfig(
        num_runs=10,
        num_disks=5,
        strategy=PrefetchStrategy.INTER_RUN,
        prefetch_depth=10,
        blocks_per_run=40,
    ),
    SimulationConfig(
        num_runs=8,
        num_disks=4,
        strategy=PrefetchStrategy.INTER_RUN,
        prefetch_depth=8,
        blocks_per_run=30,
        fault_plan=transient_plan(0.1),
    ),
    SimulationConfig(
        num_runs=6,
        num_disks=3,
        strategy=PrefetchStrategy.INTRA_RUN,
        prefetch_depth=4,
        blocks_per_run=30,
        fault_plan=fail_slow_plan(1, 3.0),
    ),
]

IDS = [config.describe() for config in MATRIX]


def _traced_trial(config, kernel):
    config = dataclasses.replace(config, kernel=kernel)
    with configure(trace=True) as context:
        metrics = MergeSimulation(config).run_trial(trial=0)
    return metrics, context.trace.trials[0]


@pytest.mark.parametrize("config", MATRIX, ids=IDS)
def test_tracing_leaves_metrics_bit_identical(config):
    plain = MergeSimulation(config).run_trial(trial=0)
    traced, _ = _traced_trial(config, config.kernel)
    assert traced.to_dict() == plain.to_dict()


@pytest.mark.parametrize("config", MATRIX, ids=IDS)
def test_kernels_emit_identical_event_streams(config):
    _, reference = _traced_trial(config, "reference")
    _, batched = _traced_trial(config, "batch")
    assert len(reference.events) == len(batched.events)
    assert reference.events == batched.events
    assert reference.registry.to_dict() == batched.registry.to_dict()


@pytest.mark.parametrize("config", MATRIX, ids=IDS)
def test_trace_is_deterministic_across_repeats(config):
    _, first = _traced_trial(config, config.kernel)
    _, second = _traced_trial(config, config.kernel)
    assert first.events == second.events


@pytest.mark.parametrize("config", MATRIX, ids=IDS)
def test_service_spans_sum_to_drive_busy_ms(config):
    metrics, trial = _traced_trial(config, config.kernel)
    for disk, stats in enumerate(metrics.drive_stats):
        assert trial.service_busy_ms(disk) == pytest.approx(
            stats.busy_ms, abs=1e-6
        )


def test_service_spans_cover_write_drives_too():
    config = SimulationConfig(
        num_runs=6,
        num_disks=2,
        strategy=PrefetchStrategy.INTRA_RUN,
        prefetch_depth=4,
        blocks_per_run=30,
        write_disks=2,
    )
    _, trial = _traced_trial(config, config.kernel)
    from repro.obs.events import SERVICE_KINDS

    write_busy = sum(
        event.duration_ms
        for event in trial.events
        if event.kind in SERVICE_KINDS and event.track.startswith("write-")
    )
    assert write_busy > 0


def test_fault_events_appear_under_fault_plans():
    config = SimulationConfig(
        num_runs=8,
        num_disks=4,
        strategy=PrefetchStrategy.INTER_RUN,
        prefetch_depth=8,
        blocks_per_run=40,
        fault_plan=transient_plan(0.2),
    )
    from repro.obs import EventKind

    metrics, trial = _traced_trial(config, config.kernel)
    faults = sum(stats.faults for stats in metrics.drive_stats)
    assert faults > 0
    assert len(trial.events_of(EventKind.FAULT)) == faults


def test_registry_snapshot_matches_metrics_after_finalize():
    config = MATRIX[2]
    metrics, trial = _traced_trial(config, config.kernel)
    registry = trial.registry
    assert (
        registry.counter("blocks_depleted").value == metrics.blocks_depleted
    )
    assert registry.gauge("total_time_ms").value == metrics.total_time_ms


def test_check_busy_spans_names_the_worst_drift(monkeypatch):
    config = MATRIX[1]
    with configure(trace=True) as context:
        metrics = MergeSimulation(config).run_trial(trial=0)
    check_busy_spans(context.trace, [metrics])  # the real trace closes
    honest = TrialTrace.service_busy_ms

    def drifting(self, disk):
        return honest(self, disk) + (0.5 if disk == 1 else 1e-7)

    monkeypatch.setattr(TrialTrace, "service_busy_ms", drifting)
    with pytest.raises(BusySpanDrift, match=r"by 5\.000e-01 ms on disk 1"):
        check_busy_spans(context.trace, [metrics])


@pytest.mark.parametrize("argv", [
    ["run", "smoke-d2", "--trials", "1", "--blocks", "20"],
    ["realio", "run", "-k", "4", "--blocks", "8"],
    ["realio", "validate", "-k", "4", "--blocks", "8", "--trials", "1"],
], ids=["run-scenario", "realio-run", "realio-validate"])
def test_cli_reports_trace_drift_and_exits_nonzero(
    argv, tmp_path, monkeypatch, capsys
):
    from repro.cli import main

    honest = TrialTrace.service_busy_ms
    monkeypatch.setattr(
        TrialTrace, "service_busy_ms",
        lambda self, disk: honest(self, disk) + 1.0,
    )
    if argv[0] == "realio":
        argv = argv + ["--dir", str(tmp_path / "dataset")]
    code = main(argv + ["--trace-out", str(tmp_path / "trace.json")])
    assert code == 1
    captured = capsys.readouterr()
    assert "error: trace busy spans drift from DriveStats.busy_ms" in captured.err
    assert "trace check" not in captured.out
