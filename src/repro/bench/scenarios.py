"""Declarative benchmark scenarios.

A :class:`BenchScenario` names a fixed workload — simulator merge, sweep
campaign, or analytical solve — with pinned seeds and scale, so the
numbers in a ``BENCH_<scenario>.json`` mean the same thing on every
commit.  Simulator scenarios run once per registered kernel (the
:mod:`repro.sim.kernel` registry: ``reference``, ``batch``, plus
anything registered later); pure-analysis scenarios are
kernel-independent and record a single variant.

``workload_events`` is the scenario's nominal unit count used for the
events-per-second throughput figure: merged blocks for simulator
scenarios (``num_runs * blocks_per_run * trials`` per cell), chain
solves for the Markov scenario.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional, Tuple

from repro.core.parameters import PrefetchStrategy, SimulationConfig
from repro.faults.plan import transient_plan
from repro.sim.kernel import kernel_names

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
    #: Kernels to measure; single-element for kernel-independent work.
    #: Defaults to every kernel registered at import time, so a newly
    #: registered kernel is benchmarked everywhere automatically.
    kernels: Tuple[str, ...] = tuple(kernel_names())
    #: Default timed repetitions / untimed warmup calls.
    repeats: int = 5
    warmup: int = 1
    #: The pinned simulation config, for scenarios that are one merge
    #: configuration (lets ``repro run <scenario>`` replay the exact
    #: workload outside the timing harness; None for composite
    #: workloads like sweeps and pure analysis).
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
    name: str,
    description: str,
    repeats: int = 5,
    warmup: int = 1,
    **config_kwargs,
) -> BenchScenario:
    config = SimulationConfig(**config_kwargs)
    return BenchScenario(
        name=name,
        description=description,
        workload_events=_merge_events(config_kwargs),
        build=_merge_build(config),
        repeats=repeats,
        warmup=warmup,
        config=config,
    )


def _sweep_build(kernel: str) -> Workload:
    """A small uncached in-process sweep (engine overhead + simulator)."""
    from repro.sweep import NullProgress, SweepEngine, SweepSpec

    spec = SweepSpec(
        name="bench-sweep-small",
        base={
            "num_runs": 6,
            "strategy": "intra-run",
            "blocks_per_run": 60,
            "kernel": kernel,
        },
        grid={"num_disks": [1, 2], "prefetch_depth": [2, 4]},
        trials=1,
        base_seed=1992,
    )

    def workload():
        engine = SweepEngine(store=None, workers=1, progress=NullProgress())
        return engine.run_spec(spec)

    return workload


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


#: Cache-hit requests per timed call of the serve-cache workload.
_SERVE_CACHE_REQUESTS = 25

#: The serve-cache scenario's live server, reused across builds in one
#: process so repeated bench runs never accumulate listener threads.
_SERVE_HANDLE: list = []


def _serve_cache_build(kernel: str) -> Workload:
    """Cache-hit latency and request throughput through the HTTP path.

    Starts a real :class:`~repro.serve.server.SimulationServer` on an
    ephemeral port with a private store, warms the cache with one
    computed request, then times rounds of pure cache-hit requests —
    the parse → lookup → respond path with zero simulation.  Hits never
    run a kernel, so the scenario records a single kernel-independent
    variant.
    """
    import tempfile

    from repro.serve import NO_RETRY, ServeClient, ServeConfig
    from repro.serve.server import SimulationServer, start_in_thread

    del kernel  # cache hits never reach a simulation kernel
    while _SERVE_HANDLE:
        _SERVE_HANDLE.pop().stop()
    config = ServeConfig(
        port=0, workers=0, cache_dir=tempfile.mkdtemp(prefix="repro-bench-")
    )
    handle = start_in_thread(SimulationServer(config))
    _SERVE_HANDLE.append(handle)
    host, port = handle.address
    client = ServeClient(host, port, retry=NO_RETRY)
    request = {"num_runs": 6, "num_disks": 2, "strategy": "intra-run",
               "prefetch_depth": 4, "blocks_per_run": 60}
    warmed = client.simulate(request, trials=1, seed=1992)
    assert warmed["cache"]["misses"] == 1  # the one and only computation

    def workload():
        for _ in range(_SERVE_CACHE_REQUESTS):
            answer = client.simulate(request, trials=1, seed=1992)
            if answer["cache"]["hits"] != 1:
                raise RuntimeError("serve-cache workload missed the cache")
        return answer

    return workload


def _dist_sweep_spec():
    from repro.sweep import SweepSpec

    return SweepSpec(
        name="bench-dist-sweep",
        base={
            "num_runs": 6,
            "strategy": "intra-run",
            "blocks_per_run": 60,
        },
        grid={"num_disks": [1, 2], "prefetch_depth": [2, 4]},
        trials=1,
        base_seed=1992,
    )


def _dist_sweep_build(kernel: str) -> Workload:
    """Campaign-execution overhead: in-process engine vs coordination.

    Both variants run the *same* 4-cell campaign into a fresh private
    store per call (so neither ever hits its own cache).  The
    ``single-host`` variant is the plain :class:`SweepEngine`; the
    ``dist-2-workers`` variant stands up a real coordinator on an
    ephemeral port plus two worker threads, so its delta over
    single-host is the full price of distribution — leasing, job
    serialization, HTTP round trips, streamed merge.
    """
    import tempfile
    import threading

    from repro.sweep import NullProgress, SweepEngine
    from repro.sweep.store import ResultStore

    spec = _dist_sweep_spec()

    if kernel == "single-host":

        def workload():
            store = ResultStore(tempfile.mkdtemp(prefix="repro-bench-dist-"))
            engine = SweepEngine(store=store, workers=1,
                                 progress=NullProgress())
            return engine.run_spec(spec)

        return workload

    from repro.dist import Coordinator, CoordinatorConfig, DistWorker
    from repro.dist.coordinator import start_coordinator_in_thread

    def workload():
        cache = tempfile.mkdtemp(prefix="repro-bench-dist-")
        coordinator = Coordinator(
            spec,
            CoordinatorConfig(port=0, shard_size=1, cache_dir=cache,
                              exit_when_done=True),
        )
        handle = start_coordinator_in_thread(coordinator)
        host, port = handle.address
        workers = [
            DistWorker(host, port, worker_id=f"bench-w{n}", poll_s=0.01)
            for n in range(2)
        ]
        threads = [threading.Thread(target=w.run) for w in workers]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        handle.join()
        return coordinator.aggregator.result()

    return workload


#: The realio-sort scenario's dataset geometry (kept tiny so the
#: scenario is tmpfs/page-cache resident and CI-stable).
_REALIO_RUNS = 6
_REALIO_DISKS = 2
_REALIO_BLOCKS = 32

#: Lazily generated dataset shared by both strategy variants within a
#: process (generation is deterministic, so reuse is safe).
_REALIO_DATASET: list = []


def _realio_dataset():
    import tempfile
    from pathlib import Path

    from repro.realio import generate_dataset

    if not _REALIO_DATASET:
        root = Path(tempfile.mkdtemp(prefix="repro-bench-realio-"))
        _REALIO_DATASET.append(generate_dataset(
            root,
            num_runs=_REALIO_RUNS,
            num_disks=_REALIO_DISKS,
            blocks_per_run=_REALIO_BLOCKS,
            seed=1992,
        ))
    return _REALIO_DATASET[0]


def _realio_sort_build(kernel: str) -> Workload:
    """A real-file k-way merge through the realio backend.

    The "kernel" axis names the prefetch strategy — both variants
    execute identical record traffic against the same files, so their
    delta isolates the strategy's effect on real (page-cache-backed)
    I/O scheduling rather than simulated time.
    """
    from repro.core.parameters import PrefetchStrategy
    from repro.realio import RealIOConfig, run_real_merge

    dataset = _realio_dataset()
    config = RealIOConfig(
        strategy=PrefetchStrategy(kernel), prefetch_depth=4
    )

    def workload():
        outcome = run_real_merge(dataset, config, trials=1, base_seed=1992)
        if not outcome.sorted_ok:
            raise RuntimeError("realio-sort produced unsorted output")
        return outcome

    return workload


def _markov_build(kernel: str) -> Workload:
    """Stationary-distribution solves of the companion-TR Markov chain."""
    del kernel  # pure analysis: no simulation kernel involved

    def workload():
        from repro.analysis.markov import policy_comparison

        return policy_comparison(3, (6, 8, 10, 12))

    return workload


_MARKOV_CAPACITIES = 4  # capacities swept by the workload above

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
        _merge_scenario(
            "merge-d1",
            "intra-run prefetch on a single disk, k=8, N=6, "
            "300 blocks/run, 2 trials",
            num_runs=8,
            num_disks=1,
            strategy=PrefetchStrategy.INTRA_RUN,
            prefetch_depth=6,
            blocks_per_run=300,
            trials=2,
            base_seed=1992,
        ),
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
            repeats=3,
            num_runs=6,
            num_disks=2,
            strategy=PrefetchStrategy.INTRA_RUN,
            prefetch_depth=4,
            blocks_per_run=60,
            trials=1,
            base_seed=1992,
        ),
        BenchScenario(
            name="sweep-small",
            description="uncached 4-cell sweep through the sweep engine "
            "(k=6, D in {1,2}, N in {2,4}, 60 blocks/run)",
            workload_events=4 * 6 * 60,
            build=_sweep_build,
            repeats=3,
        ),
        BenchScenario(
            name="sweep-batch",
            description="uncached 64-cell, 4-trial sweep through the "
            "inline sweep engine: per-trial jobs on the reference kernel "
            "vs per-cell batches on the flattened batch kernel",
            workload_events=_SWEEP_BATCH_EVENTS,
            build=_sweep_batch_build,
            repeats=3,
        ),
        BenchScenario(
            name="serve-cache",
            description="HTTP cache-hit round trips against a live "
            "repro.serve instance: 25 single-trial requests per call, "
            "all answered from the content-addressed store",
            workload_events=_SERVE_CACHE_REQUESTS,
            build=_serve_cache_build,
            kernels=("reference",),
            repeats=5,
            warmup=1,
        ),
        BenchScenario(
            name="dist-sweep",
            description="the same uncached 4-cell campaign via the "
            "in-process sweep engine vs a live coordinator + 2 worker "
            "threads over HTTP (lease, execute, stream, merge)",
            workload_events=4 * 6 * 60,
            build=_dist_sweep_build,
            kernels=("single-host", "dist-2-workers"),
            repeats=3,
        ),
        BenchScenario(
            name="realio-sort",
            description="real-file k-way merge through the repro.realio "
            "backend: k=6 runs of 32 blocks on 2 disk directories "
            "(tmpfs-backed), intra-run vs inter-run prefetching",
            workload_events=_REALIO_RUNS * _REALIO_BLOCKS,
            build=_realio_sort_build,
            kernels=("intra-run", "inter-run"),
            repeats=3,
        ),
        BenchScenario(
            name="analysis-markov",
            description="companion-TR Markov chain: conservative vs greedy "
            "parallelism, D=3, caches 6..12",
            workload_events=2 * _MARKOV_CAPACITIES,
            build=_markov_build,
            kernels=("reference",),
            repeats=3,
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

    Raises ValueError for unknown scenarios and for composite ones
    (sweeps, pure analysis) that have no single config to replay.
    """
    scenario = get_scenario(name)
    if scenario.config is None:
        raise ValueError(
            f"bench scenario {name!r} is not a single merge "
            "configuration and cannot be replayed with 'repro run'"
        )
    return scenario.config
