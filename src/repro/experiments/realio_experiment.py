"""Sim-vs-real validation as a registered experiment.

``ext-realio`` is the repository's closing of the loop the paper could
not: the paper *simulates* the claim that inter-run (forecasting)
prefetching beats intra-run prefetching; this experiment *executes*
both strategies on real files through :mod:`repro.realio`, calibrates
effective disk constants from the measured reads, re-simulates under
the fitted profile, and tables measured against predicted values.

The storage underneath is whatever backs the temp filesystem, throttled
by the backend's per-block emulation knob so the comparison is
I/O-bound even on a page cache; the calibration row of the output shows
the fitted (S, R, T) actually used for the prediction.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.core.parameters import PAPER_DISK
from repro.experiments.config import ExperimentResult, Scale, Table, register
from repro.realio import generate_dataset, run_validation

#: Dataset geometry: small enough that the full experiment (two
#: strategies x trials, plus the simulator re-runs) stays in seconds.
RUNS = 6
DISKS = 2

#: Emulated per-block device time (ms); see RealIOConfig.
THROTTLE_MS = 0.2


@register(
    "ext-realio",
    "Sim-vs-real validation of strategy ordering (extension)",
    "extension of Section 4; cf. Rahn/Sanders/Singler (real multi-disk "
    "sorting)",
    "Run intra-run and inter-run prefetching on real files through the "
    "repro.realio backend, fit effective (S, R, T) from measured reads, "
    "re-simulate under the fitted constants, and check that predicted "
    "strategy orderings hold in measurement.",
)
def ext_realio(scale: Scale) -> ExperimentResult:
    blocks_per_run = max(8, min(32, scale.blocks_per_run // 8))
    with tempfile.TemporaryDirectory(prefix="repro-ext-realio-") as tmp:
        dataset = generate_dataset(
            Path(tmp),
            num_runs=RUNS,
            num_disks=DISKS,
            blocks_per_run=blocks_per_run,
            seed=scale.base_seed,
        )
        report = run_validation(
            dataset,
            prefetch_depth=4,
            trials=scale.trials,
            base_seed=scale.base_seed,
            throttle_ms_per_block=THROTTLE_MS,
        )

    comparison = Table(
        title=(
            f"Measured (real backend) vs predicted (calibrated simulator), "
            f"k={RUNS} D={DISKS} {blocks_per_run} blocks/run, "
            f"{scale.trials} trial(s)"
        ),
        headers=[
            "strategy", "stall meas (ms)", "stall pred (ms)",
            "total meas (ms)", "total pred (ms)",
            "demand meas", "demand pred",
        ],
        rows=[
            [
                outcome.strategy.value,
                outcome.measured_stall_ms,
                outcome.predicted_stall_ms,
                outcome.measured_total_ms,
                outcome.predicted_total_ms,
                outcome.measured_demand_situations,
                outcome.predicted_demand_situations,
            ]
            for outcome in report.outcomes
        ],
    )
    fit = report.calibration.calibration
    calibration = Table(
        title="Calibrated effective disk constants (fit to measured reads)",
        headers=["constant", "fitted", "paper"],
        rows=[
            ["S (ms/cylinder)", fit.seek_ms_per_cylinder,
             PAPER_DISK.seek_ms_per_cylinder],
            ["R (ms)", fit.avg_rotational_latency_ms,
             PAPER_DISK.avg_rotational_latency_ms],
            ["T (ms/block)", fit.transfer_ms_per_block,
             PAPER_DISK.transfer_ms_per_block],
        ],
    )
    notes = [
        f"stall-time ordering agreement: {report.stall_ordering_agrees} "
        "(primary check: stall time is what prefetching removes)",
        f"demand-situation ordering agreement: "
        f"{report.demand_ordering_agrees} (structural: both executors run "
        "the identical planner logic)",
        f"total-time ordering agreement: {report.total_ordering_agrees} "
        "(informational: noisy on page-cache-fast storage)",
        f"verdict: the calibrated simulator and the real backend "
        f"{'AGREE' if report.agrees else 'DISAGREE'} on strategy ordering",
        f"device emulation: {THROTTLE_MS:g} ms/block throttle over the "
        "temp filesystem; the fitted constants describe that effective "
        "device, not a 1992 drive",
    ]
    result = ExperimentResult(
        experiment_id="ext-realio",
        title="Sim-vs-real validation of strategy ordering (extension)",
        tables=[comparison, calibration],
        notes=notes,
    )
    if not report.agrees:
        result.error = "real backend and calibrated simulator disagree"
    return result
