"""The benchmark's five workloads, built from public ``repro`` entry points.

Every workload follows one life cycle, driven by ``measure.py``:

* ``setup(seed, tmp)`` imports the program and builds the inputs from
  the seed (the program sees only the generated inputs);
* ``iterate(tracer)`` is one timed unit of work and returns the
  program's raw output;
* ``after()`` cleans up between iterations and ``check(output)`` turns
  the output into an :class:`Outcome` (operations attempted, failures
  found, a digest), both untimed;
* ``reference()`` returns, untimed, the digest every iteration must
  match (or ``None``), and ``teardown()`` releases what setup made.

All load comes from this one process, with at most two worker threads.
Stores live under ``tmp``, which the caller creates inside the checkout
and deletes afterwards.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import itertools
import json
import random
import shutil
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Optional

#: Joins of program threads give up after this long (a hang is a failure).
JOIN_TIMEOUT_S = 60.0


@dataclasses.dataclass
class Outcome:
    """What one iteration did."""

    ops: int
    failures: list[str]
    digest: str
    #: Extra per-iteration samples (serve latencies), merged by measure.py.
    samples: dict[str, list[float]] = dataclasses.field(default_factory=dict)


def digest_of(value: Any) -> str:
    """SHA-256 of the canonical JSON of ``value``."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cells_digest(cells) -> str:
    """Digest of a campaign's per-cell ``AggregateMetrics``."""
    return digest_of([cell.to_dict() for cell in cells])


def campaign_spec(seed: int):
    """Campaign spec C: 64 cells x 4 trials = 256 jobs on the batch kernel.

    The fault half of the grid runs on the event kernel today (the
    batch tier rejects fault plans), so widening the batch tier moves
    this workload.
    """
    from repro.faults.plan import transient_plan
    from repro.sweep import SweepSpec

    return SweepSpec(
        name="bench-campaign",
        base={"num_runs": 8, "blocks_per_run": 50, "kernel": "batch"},
        grid={
            "num_disks": [1, 2, 3, 5],
            "strategy": ["intra-run", "inter-run"],
            "prefetch_depth": [2, 4, 6, 8],
            "fault_plan": [None, transient_plan(0.05)],
        },
        trials=4,
        base_seed=seed,
    )


def run_campaign(spec, root: Path):
    """Spec ``spec`` through the single-host engine into a store at ``root``."""
    from repro.sweep import SweepEngine
    from repro.sweep.store import ResultStore

    return SweepEngine(store=ResultStore(root), workers=1).run_spec(spec)


class Workload:
    """Base: the life cycle every workload shares."""

    name = ""
    #: Every iteration produces the same output (all but serve, whose
    #: iterations are successive blocks of one request stream).
    repeats_output = True

    def setup(self, seed: int, tmp: Path) -> None:
        self.seed = seed
        self.tmp = tmp

    def iterate(self, tracer=None) -> Any:
        raise NotImplementedError

    def after(self) -> None:
        pass

    def check(self, output: Any) -> Outcome:
        raise NotImplementedError

    def reference(self) -> Optional[str]:
        return None

    def teardown(self) -> None:
        pass


class Figure(Workload):
    """``repro run fig-3.5a --quick``: default kernel, no store, no engine."""

    name = "figure"

    def setup(self, seed: int, tmp: Path) -> None:
        super().setup(seed, tmp)
        from repro.experiments import Scale
        from repro.experiments.runner import run_experiments

        self._run = run_experiments
        self.scale = dataclasses.replace(Scale.quick(), base_seed=seed)

    def iterate(self, tracer=None) -> Any:
        return self._run(["fig-3.5a"], self.scale, stream=io.StringIO())

    def check(self, results) -> Outcome:
        failures = [f"{r.experiment_id}: {r.error}" for r in results if not r.ok]
        tables = [
            [table.title, table.headers, table.rows]
            for result in results
            for table in result.tables
        ]
        return Outcome(ops=1, failures=failures, digest=digest_of(tables))


class Campaign(Workload):
    """Shared checks of the three workloads that run spec C."""

    def setup(self, seed: int, tmp: Path) -> None:
        super().setup(seed, tmp)
        self.spec = campaign_spec(seed)
        self.jobs = len(self.spec.jobs())

    def check(self, result) -> Outcome:
        failures = [failure.description for failure in result.failures]
        settled = result.stats.cached + result.stats.computed
        if settled != self.jobs:
            failures.append(f"{settled} of {self.jobs} jobs settled")
        return Outcome(ops=1, failures=failures, digest=cells_digest(result.cells))


class CampaignCold(Campaign):
    """Spec C through ``SweepEngine.run_spec`` into a fresh store."""

    name = "campaign-cold"

    def iterate(self, tracer=None) -> Any:
        self._store = Path(tempfile.mkdtemp(prefix="cold-", dir=self.tmp))
        return run_campaign(self.spec, self._store)

    def after(self) -> None:
        shutil.rmtree(self._store)

    def check(self, result) -> Outcome:
        outcome = super().check(result)
        if result.stats.cached:
            outcome.failures.append(f"{result.stats.cached} cold jobs were cached")
        return outcome


class CampaignWarm(Campaign):
    """Spec C again, against the store its setup populated: all hits."""

    name = "campaign-warm"

    def setup(self, seed: int, tmp: Path) -> None:
        super().setup(seed, tmp)
        from repro.sweep import SweepEngine
        from repro.sweep.store import ResultStore

        self._engine = SweepEngine
        self._store = ResultStore(tmp / "warm")
        cold = run_campaign(self.spec, self._store.root)
        if cold.failures:
            raise RuntimeError(f"populating the warm store failed: {cold.failures}")
        self._cold_digest = cells_digest(cold.cells)

    def iterate(self, tracer=None) -> Any:
        return self._engine(store=self._store, workers=1).run_spec(self.spec)

    def check(self, result) -> Outcome:
        outcome = super().check(result)
        if result.stats.computed:
            outcome.failures.append(f"{result.stats.computed} warm jobs computed")
        return outcome

    def reference(self) -> Optional[str]:
        return self._cold_digest


class Dist(Campaign):
    """Spec C through a ``Coordinator`` and one ``DistWorker`` thread."""

    name = "dist"

    def setup(self, seed: int, tmp: Path) -> None:
        super().setup(seed, tmp)
        from repro.dist import Coordinator, CoordinatorConfig, DistWorker
        from repro.dist.coordinator import start_coordinator_in_thread
        from repro.serve.clock import blocking_sleep

        self._coordinator = Coordinator
        self._config = CoordinatorConfig
        self._worker = DistWorker
        self._start = start_coordinator_in_thread
        self._sleep = blocking_sleep

    def iterate(self, tracer=None) -> Any:
        self._store = Path(tempfile.mkdtemp(prefix="dist-", dir=self.tmp))
        coordinator = self._coordinator(
            self.spec,
            self._config(port=0, cache_dir=self._store, exit_when_done=True),
        )
        handle = self._start(coordinator)
        sleep = self._sleep
        if tracer is not None:
            sleep = tracer.wrap("dist.wait", sleep)
        worker = self._worker(
            *handle.address, worker_id="bench-worker", poll_s=0.01, sleep=sleep
        )
        errors: list[str] = []

        def work() -> None:
            try:
                worker.run()
            except Exception as exc:  # reported as a failed iteration
                errors.append(f"{type(exc).__name__}: {exc}")

        thread = threading.Thread(target=work, name="bench-dist-worker")
        thread.start()
        thread.join(JOIN_TIMEOUT_S)
        handle.join(JOIN_TIMEOUT_S)
        if thread.is_alive() or handle.thread.is_alive():
            handle.stop()
            thread.join(JOIN_TIMEOUT_S)
            errors.append("dist campaign did not finish")
        return errors, worker.stats, coordinator.aggregator

    def after(self) -> None:
        shutil.rmtree(self._store)

    def check(self, output) -> Outcome:
        errors, stats, aggregator = output
        if stats.jobs_failed:
            errors.append(f"{stats.jobs_failed} dist jobs failed")
        if aggregator.completed != self.jobs:
            errors.append(f"{aggregator.completed} of {self.jobs} jobs completed")
        cells = aggregator.result()
        return Outcome(ops=1, failures=errors, digest=cells_digest(cells))

    def reference(self) -> Optional[str]:
        """Digest of the same spec through the single-host engine."""
        root = Path(tempfile.mkdtemp(prefix="dist-ref-", dir=self.tmp))
        try:
            result = run_campaign(self.spec, root)
        finally:
            shutil.rmtree(root)
        if result.failures:
            raise RuntimeError(f"single-host reference failed: {result.failures}")
        return cells_digest(result.cells)


#: Serve request stream: config axes of a newly drawn request.
SERVE_AXES = {
    "num_runs": [4, 6, 8],
    "num_disks": [1, 2, 5],
    "strategy": ["intra-run", "inter-run"],
    "prefetch_depth": [2, 4, 8],
}
SERVE_TRIALS = 2
#: One iteration is a block of requests with exactly this many new
#: configs, so every block repeats an earlier config with p = 0.6.
SERVE_BLOCK = 50
SERVE_BLOCK_NEW = 20
#: The warm-up block (part of setup): 20 requests, 8 of them new.
SERVE_WARMUP = 20
SERVE_WARMUP_NEW = 8


@dataclasses.dataclass(frozen=True)
class Request:
    config: dict
    seed: int
    first: bool  #: first sight of this config: both trials miss

    @property
    def key(self) -> tuple:
        return (self.seed, *sorted(self.config.items()))


class RequestStream:
    """Seeded closed-loop request stream for the serve workload.

    New configs cycle through a seeded shuffle of every axis
    combination, each with a fresh ``base_seed``; a repeat re-sends a
    uniformly chosen earlier config.  Fixing the number of new configs
    per block keeps the miss share identical in every block and seed.
    """

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.seen: list[Request] = []
        self._keys: set = set()
        self._cycle: list[tuple] = []

    def _new(self) -> Request:
        if not self._cycle:
            self._cycle = list(itertools.product(*SERVE_AXES.values()))
            self.rng.shuffle(self._cycle)
        config = dict(zip(SERVE_AXES, self._cycle.pop()), blocks_per_run=40)
        while True:
            request = Request(config, self.rng.randrange(1, 2**31), True)
            if request.key not in self._keys:
                break
        self._keys.add(request.key)
        self.seen.append(request)
        return request

    def block(self, size: int, new: int) -> list[Request]:
        kinds = [True] * new + [False] * (size - new)
        self.rng.shuffle(kinds)
        if not self.seen:
            kinds.remove(True)
            kinds.insert(0, True)  # the stream's first request is new
        requests = []
        for is_new in kinds:
            if is_new:
                requests.append(self._new())
            else:
                earlier = self.rng.choice(self.seen)
                requests.append(dataclasses.replace(earlier, first=False))
        return requests


class Serve(Workload):
    """One closed-loop client against a live ``SimulationServer``."""

    name = "serve"
    repeats_output = False

    def setup(self, seed: int, tmp: Path) -> None:
        super().setup(seed, tmp)
        from repro.serve import NO_RETRY, ServeClient, ServeConfig
        from repro.serve.server import SimulationServer, start_in_thread

        config = ServeConfig(port=0, workers=0, cache_dir=tmp / "serve")
        self.handle = start_in_thread(SimulationServer(config))
        host, port = self.handle.address
        self.client = ServeClient(host, port, retry=NO_RETRY)
        self.stream = RequestStream(seed)
        self._answers: dict[tuple, str] = {}
        warmup = self.check(
            self._send(self.stream.block(SERVE_WARMUP, SERVE_WARMUP_NEW))
        )
        if warmup.failures:
            raise RuntimeError(f"serve warm-up failed: {warmup.failures[:3]}")

    def iterate(self, tracer=None) -> Any:
        return self._send(self.stream.block(SERVE_BLOCK, SERVE_BLOCK_NEW))

    def _send(self, requests: list[Request]) -> list[tuple]:
        """``(request, answer or error text, seconds)`` per request."""
        exchanges = []
        for request in requests:
            start = time.perf_counter()
            try:
                answer = self.client.simulate(
                    request.config, trials=SERVE_TRIALS, seed=request.seed
                )
            except Exception as exc:  # non-200 or transport: a failed op
                answer = f"{type(exc).__name__}: {exc}"
            exchanges.append((request, answer, time.perf_counter() - start))
        return exchanges

    def check(self, exchanges) -> Outcome:
        failures: list[str] = []
        samples: dict[str, list[float]] = {"hit_s": [], "miss_s": []}
        digests = []
        for request, answer, seconds in exchanges:
            if isinstance(answer, str):
                failures.append(answer)
                continue
            cache = answer["cache"]
            expected = (0, SERVE_TRIALS) if request.first else (SERVE_TRIALS, 0)
            if (cache["hits"], cache["misses"]) != expected:
                failures.append(f"cache pattern {cache} for {request}")
            digest = digest_of(answer["trials"])
            if request.first:
                self._answers[request.key] = digest
            elif self._answers.get(request.key) != digest:
                failures.append(f"repeat answer differs for {request}")
            samples["miss_s" if request.first else "hit_s"].append(seconds)
            digests.append(digest)
        return Outcome(
            ops=len(exchanges),
            failures=failures,
            digest=digest_of(digests),
            samples=samples,
        )

    def teardown(self) -> None:
        self.handle.stop()
        if self.handle.thread.is_alive():
            raise RuntimeError("serve thread did not stop")


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (Figure, CampaignCold, CampaignWarm, Serve, Dist)
}
