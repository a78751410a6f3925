"""Experiment descriptors, result containers, and the registry."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.core.parameters import SimulationConfig


@dataclass(frozen=True)
class Scale:
    """How big to run an experiment.

    ``full()`` matches the paper (1000-block runs, 5 trials, dense
    sweeps); ``quick()`` shrinks everything for CI and benchmarks while
    keeping the qualitative shape (who wins, where curves flatten).
    """

    trials: int
    blocks_per_run: int
    sweep_density: float  # 1.0 = paper-density sweeps, <1 thins them out
    base_seed: int = 1992

    @classmethod
    def full(cls) -> "Scale":
        return cls(trials=5, blocks_per_run=1000, sweep_density=1.0)

    @classmethod
    def quick(cls) -> "Scale":
        return cls(trials=2, blocks_per_run=200, sweep_density=0.5)

    def config(self, **overrides) -> SimulationConfig:
        """A configuration at this scale: its blocks per run, trials
        and base seed, plus ``overrides``."""
        return SimulationConfig(
            blocks_per_run=self.blocks_per_run,
            trials=self.trials,
            base_seed=self.base_seed,
            **overrides,
        )

    def thin(self, values: Sequence) -> list:
        """Thin a sweep list according to ``sweep_density``.

        Always keeps the first and last values.
        """
        if self.sweep_density >= 1.0 or len(values) <= 2:
            return list(values)
        step = max(1, round(1.0 / self.sweep_density))
        kept = list(values[::step])
        if values[-1] not in kept:
            kept.append(values[-1])
        return kept


@dataclass
class Table:
    """One formatted result table."""

    title: str
    headers: list[str]
    rows: list[list[object]]

    def render(self) -> str:
        cells = [[self._fmt(value) for value in row] for row in self.rows]
        widths = [
            max(len(header), *(len(row[i]) for row in cells)) if cells else len(header)
            for i, header in enumerate(self.headers)
        ]
        lines = [self.title]
        lines.append(
            "  ".join(header.ljust(widths[i]) for i, header in enumerate(self.headers))
        )
        lines.append("  ".join("-" * width for width in widths))
        for row in cells:
            lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(row))))
        return "\n".join(lines)

    @staticmethod
    def _fmt(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.2f}"
        return str(value)


@dataclass
class ExperimentResult:
    """Everything an experiment produced.

    ``error`` is set (and the payload left empty) when the experiment
    raised instead of completing — the batch runner returns such
    partial results rather than aborting the whole batch.
    """

    experiment_id: str
    title: str
    tables: list[Table] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    charts: list[str] = field(default_factory=list)
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def render(self) -> str:
        parts = [f"== {self.experiment_id}: {self.title} =="]
        if self.error is not None:
            parts.append(f"ERROR: {self.error}")
        for table in self.tables:
            parts.append("")
            parts.append(table.render())
        for chart in self.charts:
            parts.append("")
            parts.append(chart)
        if self.notes:
            parts.append("")
            parts.extend(f"note: {note}" for note in self.notes)
        return "\n".join(parts)


@dataclass(frozen=True)
class Experiment:
    """A registered, reproducible experiment."""

    experiment_id: str
    title: str
    paper_reference: str
    description: str
    runner: Callable[[Scale], ExperimentResult]

    def run(self, scale: Optional[Scale] = None) -> ExperimentResult:
        return self.runner(scale or Scale.full())


_REGISTRY: dict[str, Experiment] = {}


def register(
    experiment_id: str,
    title: str,
    paper_reference: str,
    description: str,
) -> Callable[[Callable[[Scale], ExperimentResult]], Callable[[Scale], ExperimentResult]]:
    """Decorator registering an experiment runner under ``experiment_id``."""

    def decorate(runner: Callable[[Scale], ExperimentResult]):
        if experiment_id in _REGISTRY:
            raise ValueError(f"duplicate experiment id {experiment_id!r}")
        _REGISTRY[experiment_id] = Experiment(
            experiment_id=experiment_id,
            title=title,
            paper_reference=paper_reference,
            description=description,
            runner=runner,
        )
        return runner

    return decorate


def register_alias(alias: str, experiment_id: str) -> None:
    """Expose an existing experiment under a second id."""
    base = _REGISTRY[experiment_id]
    if alias in _REGISTRY:
        raise ValueError(f"duplicate experiment id {alias!r}")
    _REGISTRY[alias] = Experiment(
        experiment_id=alias,
        title=base.title,
        paper_reference=base.paper_reference,
        description=f"(alias of {experiment_id}) {base.description}",
        runner=base.runner,
    )


def get_experiment(experiment_id: str) -> Experiment:
    try:
        return _REGISTRY[experiment_id]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown experiment {experiment_id!r}; known: {known}") from None


def all_experiments() -> list[Experiment]:
    return [_REGISTRY[key] for key in sorted(_REGISTRY)]
