"""Sim-vs-real validation: does the simulator predict this storage?

The closing of the loop the ROADMAP's north star asks for: run the
paper's strategies on *real* files through the real-I/O backend,
calibrate effective (S, R, T) from the measured reads, re-run the
*simulator* under the fitted constants at the matching configuration,
and check that the predictions agree with the measurements where the
paper's claims live:

* **strategy ordering by demand-stall time** — the primary check.
  Stall time is what prefetching exists to remove, and it is robust on
  fast storage, where total elapsed time is dominated by CPU-side
  merge work the simulator deliberately prices at zero.
* **strategy ordering by demand situations** — a structural check that
  is exact: both executors run the identical planner logic, so the
  count of demand situations must order the same way.
* **strategy ordering by total time** — recorded, and reliable on
  storage slow enough for I/O to dominate (e.g. with the throttle
  emulation), but noisy on tmpfs; reported separately so a tmpfs CI
  run does not flap.

The report carries measured and predicted values side by side with
their ratios, so systematic model error (e.g. unmodelled page-cache
effects) is visible even when every ordering agrees.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Optional, Sequence

from repro.core.parameters import (
    CachePolicy,
    PrefetchStrategy,
    SimulationConfig,
    VictimSelector,
)
from repro.core.simulator import MergeSimulation
from repro.obs.collector import check_busy_spans
from repro.realio.backend import RealIOConfig, run_real_merge
from repro.realio.calibrate import CalibrationReport, calibrate
from repro.realio.clock import (
    ClockMs,
    SleepMs,
    blocking_sleep_ms,
    wall_clock_ms,
)
from repro.realio.dataset import RealDataset

#: The strategy pair whose ordering the paper's claims rank.
DEFAULT_STRATEGIES = (
    PrefetchStrategy.INTRA_RUN,
    PrefetchStrategy.INTER_RUN,
)


@dataclasses.dataclass(frozen=True)
class StrategyOutcome:
    """Measured and predicted results for one strategy."""

    strategy: PrefetchStrategy
    measured_total_ms: float
    measured_stall_ms: float
    measured_demand_situations: float
    predicted_total_ms: float
    predicted_stall_ms: float
    predicted_demand_situations: float

    @property
    def total_ratio(self) -> float:
        """measured / predicted total time (inf when prediction is 0)."""
        return _ratio(self.measured_total_ms, self.predicted_total_ms)

    @property
    def stall_ratio(self) -> float:
        return _ratio(self.measured_stall_ms, self.predicted_stall_ms)

    def to_dict(self) -> dict:
        return {
            "strategy": self.strategy.value,
            "measured_total_ms": self.measured_total_ms,
            "measured_stall_ms": self.measured_stall_ms,
            "measured_demand_situations": self.measured_demand_situations,
            "predicted_total_ms": self.predicted_total_ms,
            "predicted_stall_ms": self.predicted_stall_ms,
            "predicted_demand_situations": self.predicted_demand_situations,
            "total_ratio": self.total_ratio,
            "stall_ratio": self.stall_ratio,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "StrategyOutcome":
        """Inverse of :meth:`to_dict`.

        The ratio keys are derived, so instead of restoring them they
        are cross-checked: a report whose stored ratios do not match
        its stored values was edited or truncated.
        """
        outcome = cls(
            strategy=PrefetchStrategy(data["strategy"]),
            measured_total_ms=data["measured_total_ms"],
            measured_stall_ms=data["measured_stall_ms"],
            measured_demand_situations=data["measured_demand_situations"],
            predicted_total_ms=data["predicted_total_ms"],
            predicted_stall_ms=data["predicted_stall_ms"],
            predicted_demand_situations=data["predicted_demand_situations"],
        )
        for key in ("total_ratio", "stall_ratio"):
            if key in data and data[key] != getattr(outcome, key):
                raise ValueError(
                    f"inconsistent outcome: stored {key} does not match "
                    f"the stored measurements"
                )
        return outcome


def _ratio(measured: float, predicted: float) -> float:
    if predicted == 0:
        return float("inf") if measured > 0 else 1.0
    return measured / predicted


def _ordering(outcomes: Sequence[StrategyOutcome], attribute: str) -> list[str]:
    """Strategy names sorted by one metric, cheapest first."""
    ranked = sorted(outcomes, key=lambda o: getattr(o, attribute))
    return [outcome.strategy.value for outcome in ranked]


@dataclasses.dataclass(frozen=True)
class ValidationReport:
    """The verdict of one sim-vs-real validation run."""

    dataset_description: str
    prefetch_depth: int
    trials: int
    throttle_ms_per_block: float
    calibration: CalibrationReport
    outcomes: tuple[StrategyOutcome, ...]

    @property
    def stall_ordering_agrees(self) -> bool:
        """Primary verdict: measured and predicted stall orderings match."""
        return (
            _ordering(self.outcomes, "measured_stall_ms")
            == _ordering(self.outcomes, "predicted_stall_ms")
        )

    @property
    def demand_ordering_agrees(self) -> bool:
        return (
            _ordering(self.outcomes, "measured_demand_situations")
            == _ordering(self.outcomes, "predicted_demand_situations")
        )

    @property
    def total_ordering_agrees(self) -> bool:
        return (
            _ordering(self.outcomes, "measured_total_ms")
            == _ordering(self.outcomes, "predicted_total_ms")
        )

    @property
    def agrees(self) -> bool:
        """The headline verdict (stall + demand-count orderings)."""
        return self.stall_ordering_agrees and self.demand_ordering_agrees

    def to_dict(self) -> dict:
        return {
            "dataset": self.dataset_description,
            "prefetch_depth": self.prefetch_depth,
            "trials": self.trials,
            "throttle_ms_per_block": self.throttle_ms_per_block,
            "calibration": self.calibration.to_dict(),
            "outcomes": [outcome.to_dict() for outcome in self.outcomes],
            "stall_ordering_agrees": self.stall_ordering_agrees,
            "demand_ordering_agrees": self.demand_ordering_agrees,
            "total_ordering_agrees": self.total_ordering_agrees,
            "agrees": self.agrees,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ValidationReport":
        """Inverse of :meth:`to_dict`.

        The verdict keys are derived properties; they are cross-checked
        against the stored outcomes rather than restored, so an edited
        or truncated report fails loudly instead of lying quietly.
        """
        report = cls(
            dataset_description=data["dataset"],
            prefetch_depth=data["prefetch_depth"],
            trials=data["trials"],
            throttle_ms_per_block=data["throttle_ms_per_block"],
            calibration=CalibrationReport.from_dict(data["calibration"]),
            outcomes=tuple(
                StrategyOutcome.from_dict(entry)
                for entry in data["outcomes"]
            ),
        )
        for key in (
            "stall_ordering_agrees", "demand_ordering_agrees",
            "total_ordering_agrees", "agrees",
        ):
            if key in data and data[key] != getattr(report, key):
                raise ValueError(
                    f"inconsistent report: stored {key} does not match "
                    f"the stored outcomes"
                )
        return report

    def save(self, path: Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    def render(self) -> str:
        lines = [
            "Sim-vs-real validation",
            f"  dataset: {self.dataset_description}",
            f"  N={self.prefetch_depth} trials={self.trials} "
            f"throttle={self.throttle_ms_per_block:g} ms/block",
            "",
            self.calibration.render(),
            "",
            f"  {'strategy':>10s} {'stall meas':>12s} {'stall pred':>12s} "
            f"{'total meas':>12s} {'total pred':>12s} {'demand m/p':>12s}",
        ]
        for outcome in self.outcomes:
            lines.append(
                f"  {outcome.strategy.value:>10s} "
                f"{outcome.measured_stall_ms:>10.2f}ms "
                f"{outcome.predicted_stall_ms:>10.2f}ms "
                f"{outcome.measured_total_ms:>10.2f}ms "
                f"{outcome.predicted_total_ms:>10.2f}ms "
                f"{outcome.measured_demand_situations:>5.0f}/"
                f"{outcome.predicted_demand_situations:<5.0f}"
            )
        lines += [
            "",
            f"  stall ordering agrees:  {self.stall_ordering_agrees}",
            f"  demand ordering agrees: {self.demand_ordering_agrees}",
            f"  total ordering agrees:  {self.total_ordering_agrees}",
            f"  verdict: {'AGREE' if self.agrees else 'DISAGREE'}",
        ]
        return "\n".join(lines)


def run_validation(
    dataset: RealDataset,
    strategies: Sequence[PrefetchStrategy] = DEFAULT_STRATEGIES,
    prefetch_depth: int = 4,
    trials: int = 3,
    base_seed: int = 1992,
    throttle_ms_per_block: float = 0.0,
    cache_policy: CachePolicy = CachePolicy.CONSERVATIVE,
    victim_selector: VictimSelector = VictimSelector.RANDOM,
    session=None,
    clock: ClockMs = wall_clock_ms,
    sleep: SleepMs = blocking_sleep_ms,
) -> ValidationReport:
    """Measure, calibrate, predict, and compare.

    1. Run every strategy on the real backend (``trials`` seeded runs
       each), optionally tracing into ``session``.
    2. Calibrate effective (S, R, T) from the pooled read samples of
       all measured runs (real merge traffic, not a synthetic probe).
    3. Re-run the simulator under the fitted constants at the matching
       configuration (same k, D, N, run length, cache sizing rule,
       seeds) and compare orderings.

    With a ``session``, every measured trial's trace is checked
    against its drive accounting
    (:class:`~repro.obs.collector.BusySpanDrift` on drift).
    """
    if len(strategies) < 2:
        raise ValueError("validation needs at least two strategies to rank")
    measured = {}
    samples = []
    for strategy in strategies:
        config = RealIOConfig(
            strategy=strategy,
            prefetch_depth=prefetch_depth,
            cache_policy=cache_policy,
            victim_selector=victim_selector,
            throttle_ms_per_block=throttle_ms_per_block,
        )
        first_trial = len(session.trials) if session is not None else 0
        outcome = run_real_merge(
            dataset,
            config,
            trials=trials,
            base_seed=base_seed,
            session=session,
            clock=clock,
            sleep=sleep,
        )
        if not outcome.sorted_ok:
            raise RuntimeError(
                f"real merge under {strategy.value} produced unsorted output"
            )
        if session is not None:
            check_busy_spans(session, outcome.trials, first_trial)
        measured[strategy] = outcome
        samples.extend(outcome.samples)

    from repro.realio.calibrate import observations_from_samples

    report = calibrate(
        dataset,
        observations=observations_from_samples(samples),
        throttle_ms_per_block=throttle_ms_per_block,
    )

    outcomes = []
    for strategy in strategies:
        sim_config = SimulationConfig(
            num_runs=dataset.num_runs,
            num_disks=dataset.num_disks,
            strategy=strategy,
            prefetch_depth=prefetch_depth,
            blocks_per_run=dataset.blocks_per_run,
            cache_policy=cache_policy,
            victim_selector=victim_selector,
            disk=report.disk_parameters,
            trials=trials,
            base_seed=base_seed,
            kernel="batch",
        )
        predicted = MergeSimulation(sim_config).run()
        real = measured[strategy].aggregate
        outcomes.append(StrategyOutcome(
            strategy=strategy,
            measured_total_ms=_mean(
                [m.total_time_ms for m in real.trials]
            ),
            measured_stall_ms=_mean(
                [m.cpu_stall_ms for m in real.trials]
            ),
            measured_demand_situations=_mean(
                [m.demand_situations for m in real.trials]
            ),
            predicted_total_ms=_mean(
                [m.total_time_ms for m in predicted.trials]
            ),
            predicted_stall_ms=_mean(
                [m.cpu_stall_ms for m in predicted.trials]
            ),
            predicted_demand_situations=_mean(
                [m.demand_situations for m in predicted.trials]
            ),
        ))
    return ValidationReport(
        dataset_description=dataset.describe(),
        prefetch_depth=prefetch_depth,
        trials=trials,
        throttle_ms_per_block=throttle_ms_per_block,
        calibration=report,
        outcomes=tuple(outcomes),
    )


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0
