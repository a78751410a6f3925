"""Declarative sweep specifications.

A :class:`SweepSpec` names a campaign and describes a parameter grid:
``base`` holds the :class:`~repro.core.parameters.SimulationConfig`
keyword arguments common to every cell, ``grid`` maps parameter names
to lists of values swept in cross product.  Expansion is deterministic:
cells enumerate in the insertion order of ``grid`` (last key varies
fastest, like nested for-loops), and each cell expands into one
:class:`SweepJob` per trial with seed ``base_seed + trial`` — exactly
the seeds the serial path uses, so a sweep's aggregated results are
bit-identical to running each configuration through
:class:`~repro.core.simulator.MergeSimulation` in a loop.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.core.parameters import SimulationConfig
from repro.sweep.keys import (
    canonical_json,
    coerce_params,
    config_to_dict,
    trial_keys,
)


@dataclass(frozen=True)
class SweepJob:
    """One unit of work: a single seeded trial of one grid cell."""

    index: int  #: position in deterministic expansion order
    cell: int  #: index of the owning grid cell
    trial: int  #: trial number within the cell
    config: SimulationConfig
    key: str  #: content address (see :func:`repro.sweep.keys.cache_key`)

    @property
    def seed(self) -> int:
        return self.config.base_seed + self.trial

    def describe(self) -> str:
        return f"{self.config.describe()} trial={self.trial}"


def jobs_for_config(
    config: SimulationConfig,
    cell: int = 0,
    first_index: int = 0,
) -> list[SweepJob]:
    """Expand one configuration into its per-trial jobs.

    Trial ``t`` is keyed by its seed ``config.base_seed + t``, exactly
    as :func:`repro.sweep.store.compute_key` derives it.
    """
    seeds = [config.base_seed + trial for trial in range(config.trials)]
    return [
        SweepJob(
            index=first_index + trial,
            cell=cell,
            trial=trial,
            config=config,
            key=key,
        )
        for trial, key in enumerate(trial_keys(config, seeds))
    ]


def jobs_for_cells(cells: Sequence[SimulationConfig]) -> list[SweepJob]:
    """Every (cell, trial) job of already-expanded ``cells``, in order."""
    jobs: list[SweepJob] = []
    for cell, config in enumerate(cells):
        jobs.extend(jobs_for_config(config, cell=cell, first_index=len(jobs)))
    return jobs


def cells_key(cells: Sequence[SimulationConfig]) -> str:
    """Stable hash of already-expanded ``cells`` (see :meth:`SweepSpec.spec_key`)."""
    payload = [config_to_dict(config) for config in cells]
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class SweepSpec:
    """A named, declarative parameter sweep.

    Attributes:
        name: campaign name (used for the checkpoint manifest).
        base: config kwargs shared by every cell.  String enum values
            (``"inter-run"``) are accepted and coerced.
        grid: parameter name -> list of values, expanded in cross
            product in insertion order.
        trials: trials per cell (unless overridden in ``base``/``grid``).
        base_seed: root seed (unless overridden in ``base``/``grid``).
    """

    name: str = "sweep"
    base: Mapping[str, Any] = field(default_factory=dict)
    grid: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    trials: int = 1
    base_seed: int = 1992

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        overlap = set(self.base) & set(self.grid)
        if overlap:
            raise ValueError(
                f"parameters {sorted(overlap)} appear in both base and grid"
            )
        for name, values in self.grid.items():
            if not values:
                raise ValueError(f"grid parameter {name!r} has no values")

    def cell_params(self) -> list[dict]:
        """Concrete parameter dict of every cell, in expansion order."""
        names = list(self.grid)
        combos = itertools.product(*(self.grid[name] for name in names))
        return [
            {**self.base, **dict(zip(names, combo))} for combo in combos
        ]

    def cells(self) -> list[SimulationConfig]:
        """Concrete configuration of every cell, in expansion order."""
        configs = []
        for params in self.cell_params():
            merged = {
                "trials": self.trials,
                "base_seed": self.base_seed,
                **coerce_params(params),
            }
            configs.append(SimulationConfig(**merged))
        return configs

    def jobs(self) -> list[SweepJob]:
        """Every (cell, trial) job, in deterministic order."""
        return jobs_for_cells(self.cells())

    def to_dict(self) -> dict:
        """JSON-able form (inverse: :meth:`from_dict`).

        Enum and dataclass values inside ``base``/``grid`` are flattened
        to plain JSON values; :func:`~repro.sweep.keys.coerce_params`
        restores them when the spec is expanded again.
        """
        return {
            "name": self.name,
            "base": _plain(dict(self.base)),
            "grid": {k: _plain(list(v)) for k, v in self.grid.items()},
            "trials": self.trials,
            "base_seed": self.base_seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SweepSpec":
        return cls(
            name=data.get("name", "sweep"),
            base=data.get("base", {}),
            grid=data.get("grid", {}),
            trials=data.get("trials", 1),
            base_seed=data.get("base_seed", 1992),
        )

    def spec_key(self) -> str:
        """Stable hash of the whole spec (checkpoint sanity check)."""
        return cells_key(self.cells())


def _plain(value: Any) -> Any:
    """Recursively replace enums/dataclasses with JSON-able values."""
    import dataclasses
    import enum

    if isinstance(value, enum.Enum):
        return value.value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return dataclasses.asdict(value)
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value
