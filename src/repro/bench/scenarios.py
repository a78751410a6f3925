"""Declarative benchmark scenarios: the kernel baselines.

A :class:`BenchScenario` names a fixed simulator workload with pinned
seeds and scale, so the numbers in a ``BENCH_<scenario>.json`` mean the
same thing on every commit.  Every scenario runs on both kernels
(:data:`repro.bench.harness.KERNELS`), and ``build(kernel)`` must return
workloads with bit-identical results on either.

``workload_events`` is the scenario's nominal unit count used for the
events-per-second throughput figure: merged blocks
(``num_runs * blocks_per_run * trials`` per cell).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional

from repro.core.parameters import PrefetchStrategy, SimulationConfig
from repro.faults.plan import transient_plan

#: A zero-argument workload; its return value is discarded.
Workload = Callable[[], object]


@dataclasses.dataclass(frozen=True)
class BenchScenario:
    """One named, fully pinned benchmark workload."""

    name: str
    description: str
    #: Nominal unit count for throughput (see module docstring).
    workload_events: int
    #: ``build(kernel)`` returns the callable to time on that kernel.
    build: Callable[[str], Workload]
    #: The pinned simulation config, for scenarios that are one merge
    #: configuration (lets ``repro run <scenario>`` replay the exact
    #: workload outside the timing harness; None for sweeps).
    config: Optional[SimulationConfig] = None


def _merge_build(config: SimulationConfig) -> Callable[[str], Workload]:
    """Workload factory for one merge configuration."""

    def build(kernel: str) -> Workload:
        from repro.core.simulator import MergeSimulation

        variant = dataclasses.replace(config, kernel=kernel)

        def workload():
            return MergeSimulation(variant).run()

        return workload

    return build


def _merge_events(config_kwargs: dict) -> int:
    return (
        config_kwargs["num_runs"]
        * config_kwargs["blocks_per_run"]
        * config_kwargs.get("trials", 1)
    )


def _merge_scenario(
    name: str, description: str, **config_kwargs
) -> BenchScenario:
    config = SimulationConfig(**config_kwargs)
    return BenchScenario(
        name=name,
        description=description,
        workload_events=_merge_events(config_kwargs),
        build=_merge_build(config),
        config=config,
    )


#: Grid shape of the sweep-batch scenario: 4 x 4 x 4 = 64 cells,
#: 4 trials each (so per-cell batches are real groups, not singletons).
_SWEEP_BATCH_DISKS = [1, 2, 3, 4]
_SWEEP_BATCH_DEPTHS = [2, 3, 4, 5]
_SWEEP_BATCH_RUNS = [6, 8, 10, 12]
_SWEEP_BATCH_TRIALS = 4
_SWEEP_BATCH_BLOCKS = 40


def _sweep_batch_build(kernel: str) -> Workload:
    """Batched vs per-trial execution of a 64-cell uncached sweep.

    Both variants run the identical campaign through the inline sweep
    engine with no result store.  The ``reference`` variant executes
    one worker call per trial; the ``batch`` variant groups each cell's
    trials into a single :func:`repro.sweep.worker.execute_batch` call
    that the flattened interpreter runs in one pass — the measured gap
    is the batch tier's whole advantage (flat execution plus amortized
    per-config setup and per-job dispatch).
    """
    from repro.sweep import NullProgress, SweepEngine, SweepSpec

    spec = SweepSpec(
        name="bench-sweep-batch",
        base={
            "strategy": "intra-run",
            "blocks_per_run": _SWEEP_BATCH_BLOCKS,
            "kernel": kernel,
        },
        grid={
            "num_disks": _SWEEP_BATCH_DISKS,
            "prefetch_depth": _SWEEP_BATCH_DEPTHS,
            "num_runs": _SWEEP_BATCH_RUNS,
        },
        trials=_SWEEP_BATCH_TRIALS,
        base_seed=1992,
    )

    def workload():
        engine = SweepEngine(store=None, workers=1, progress=NullProgress())
        return engine.run_spec(spec)

    return workload


_SWEEP_BATCH_EVENTS = (
    len(_SWEEP_BATCH_DISKS)
    * len(_SWEEP_BATCH_DEPTHS)
    * sum(_SWEEP_BATCH_RUNS)
    * _SWEEP_BATCH_BLOCKS
    * _SWEEP_BATCH_TRIALS
)


SCENARIOS: dict[str, BenchScenario] = {
    scenario.name: scenario
    for scenario in [
        _merge_scenario(
            "merge-d5",
            "inter-run prefetch, k=10 runs on D=5 disks, N=10, "
            "400 blocks/run, 2 trials",
            num_runs=10,
            num_disks=5,
            strategy=PrefetchStrategy.INTER_RUN,
            prefetch_depth=10,
            blocks_per_run=400,
            trials=2,
            base_seed=1992,
        ),
        # The only scenario whose batch variant runs the interpreter's
        # native fault path.
        _merge_scenario(
            "merge-faults-d5",
            "inter-run prefetch under 5% transient faults on drive 0, "
            "k=10, D=5, N=10, 200 blocks/run, 2 trials",
            num_runs=10,
            num_disks=5,
            strategy=PrefetchStrategy.INTER_RUN,
            prefetch_depth=10,
            blocks_per_run=200,
            trials=2,
            base_seed=1992,
            fault_plan=transient_plan(0.05),
        ),
        _merge_scenario(
            "smoke-d2",
            "tiny CI smoke workload: k=6, D=2, intra-run N=4, "
            "60 blocks/run, 1 trial",
            num_runs=6,
            num_disks=2,
            strategy=PrefetchStrategy.INTRA_RUN,
            prefetch_depth=4,
            blocks_per_run=60,
            trials=1,
            base_seed=1992,
        ),
        BenchScenario(
            name="sweep-batch",
            description="uncached 64-cell, 4-trial sweep through the "
            "inline sweep engine: per-trial jobs on the reference kernel "
            "vs per-cell batches on the flattened batch kernel",
            workload_events=_SWEEP_BATCH_EVENTS,
            build=_sweep_batch_build,
        ),
    ]
}


def scenario_names() -> list[str]:
    """Registered scenario names, sorted."""
    return sorted(SCENARIOS)


def get_scenario(name: str) -> BenchScenario:
    """Look up a scenario; raises ValueError listing valid names."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown bench scenario {name!r}: "
            f"choose one of {', '.join(scenario_names())}"
        ) from None


def scenario_config(name: str) -> SimulationConfig:
    """The pinned config of a single-configuration scenario.

    Raises ValueError for unknown scenarios and for sweeps, which have
    no single config to replay.
    """
    scenario = get_scenario(name)
    if scenario.config is None:
        raise ValueError(
            f"bench scenario {name!r} is not a single merge "
            "configuration and cannot be replayed with 'repro run'"
        )
    return scenario.config
