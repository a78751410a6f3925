"""One workload in one process: set up, measure, check, report.

:func:`measure` is what a workload subprocess of ``run.py`` executes.
It imports the program only through ``workloads.py``, so set-up time,
import cost and peak RSS belong to the one workload.
"""

from __future__ import annotations

import cProfile
import json
import os
import resource
import shutil
import statistics
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import Optional

import spans
import yardstick
from workloads import WORKLOADS, Outcome, Workload

HERE = Path(__file__).resolve().parent

#: The seed whose output digests are pinned in ``digests.json``.
PINNED_SEED = 1992
#: After each untraced iteration the yardstick runs for this share of
#: the iteration's time, so it samples the host across the whole run.
YARDSTICK_SHARE = 0.1


def pinned_digests() -> dict[str, str]:
    with open(HERE / "digests.json") as handle:
        return json.load(handle)["digests"]


def settle() -> None:
    """Flush the file systems between iterations (untimed).

    Each timed iteration then starts as an isolated user run would,
    not behind its predecessors' pending file-system work.  Without
    this, back-to-back iterations of the store-heavy workloads ran up
    to 1.7x slower, and far less steadily, on the ext4 disk of the
    development container.
    """
    os.sync()


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (``statistics.quantiles``, n=100)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


class Run:
    """Iterations of one workload and what they found."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.walls: list[float] = []
        self.traced_walls: list[float] = []
        self.digests: list[str] = []
        self.ops = 0
        self.failed = 0
        self.messages: list[str] = []
        self.samples: dict[str, list[float]] = {}

    def iteration(
        self,
        tracer: Optional[spans.Tracer] = None,
        profiler: Optional[cProfile.Profile] = None,
    ) -> None:
        """One timed iteration, traced when ``tracer`` is given."""
        if tracer is None:
            start = time.perf_counter()
            output = self.workload.iterate()
            self.walls.append(time.perf_counter() - start)
        else:
            tracer.install(profile=profiler is not None)
            try:
                with tracer.root():
                    start = time.perf_counter()
                    if profiler is not None:
                        profiler.enable()
                    try:
                        output = self.workload.iterate(tracer)
                    finally:
                        if profiler is not None:
                            profiler.disable()
                    wall = time.perf_counter() - start
                tracer.wait_for_threads()
            finally:
                tracer.uninstall()
            if profiler is None:
                self.traced_walls.append(wall)
        self.workload.after()
        settle()
        self._check(self.workload.check(output))

    def _check(self, outcome: Outcome) -> None:
        problems = list(outcome.failures)
        if self.workload.repeats_output and self.digests:
            if outcome.digest != self.digests[0]:
                problems.append("output digest changed between iterations")
        if not self.digests and self.seed == PINNED_SEED:
            if outcome.digest != pinned_digests()[self.workload.name]:
                problems.append(f"digest differs from the pinned seed-{PINNED_SEED} digest")
        self.digests.append(outcome.digest)
        self._count(outcome.ops, problems)
        for name, values in outcome.samples.items():
            self.samples.setdefault(name, []).extend(values)

    def _count(self, ops: int, problems: list[str]) -> None:
        self.ops += ops
        self.failed += min(ops, len(problems))
        self.messages.extend(problems[: max(0, 5 - len(self.messages))])

    def cross_check(self) -> None:
        """Every iteration against the workload's independent reference."""
        expected = self.workload.reference()
        if expected is None:
            return
        wrong = sum(1 for digest in self.digests if digest != expected)
        if wrong:
            self.failed = max(self.failed, wrong)
            self.messages.append(f"{wrong} iteration(s) differ from the reference")


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    setup_only: bool,
    started: float,
) -> dict:
    """Run workload ``name``; returns the child's JSON report.

    ``started`` is the ``perf_counter`` reading taken when the process
    began, so ``setup_s`` includes interpreter start-up and imports.
    """
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-"))
    workload = WORKLOADS[name]()
    try:
        workload.setup(seed, tmp)
        setup_s = time.perf_counter() - started
        try:
            if setup_only:
                return {"setup_s": setup_s}
            run = Run(workload, seed)
            report = {"setup_s": setup_s}
            settle()
            if trace:
                report["per_layer"], report["details"] = _traced(run, seconds)
            else:
                stick = yardstick.sample(0.0)
                deadline = time.perf_counter() + seconds
                while not run.walls or time.perf_counter() < deadline:
                    run.iteration()
                    stick += yardstick.sample(YARDSTICK_SHARE * run.walls[-1])
                report["scaled_wall_s"] = (
                    statistics.mean(run.walls)
                    * yardstick.REFERENCE_S / statistics.mean(stick)
                )
                report["details"] = {
                    "wall_s": statistics.median(run.walls),
                    "yardstick_ms": 1000 * statistics.mean(stick),
                    **_details(run),
                }
            run.cross_check()
        finally:
            workload.teardown()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    report.update(
        walls=run.walls,
        attempted=run.ops,
        failed=run.failed,
        failures=run.messages,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    return report


def _details(run: Run) -> dict:
    """Serve's request-level numbers (only serve records samples)."""
    if not run.samples:
        return {}
    hits = run.samples["hit_s"]
    misses = run.samples["miss_s"]
    return {
        "requests_per_s": ratio(len(hits) + len(misses), sum(run.walls)),
        "hit_ms_p50": 1000 * percentile(hits, 50),
        "hit_ms_p90": 1000 * percentile(hits, 90),
        "miss_ms_p50": 1000 * percentile(misses, 50),
        "miss_ms_p90": 1000 * percentile(misses, 90),
        "hits": len(hits),
        "misses": len(misses),
    }


def _traced(run: Run, seconds: float) -> tuple[dict, dict]:
    """Alternate untraced and span-traced iterations, then profile one."""
    tracer = spans.Tracer()
    deadline = time.perf_counter() + seconds
    while not run.traced_walls or time.perf_counter() < deadline:
        run.iteration()
        run.iteration(tracer)
    main = cProfile.Profile()
    profiled = spans.Tracer()
    run.iteration(profiled, main)
    import repro

    repro_root = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
    shares = spans.profile_shares(
        [main, *profiled.profilers.values()], repro_root
    )
    per_layer = layer_metrics(tracer, shares)
    per_layer["trace_overhead"] = statistics.median(
        run.traced_walls
    ) / statistics.median(run.walls)
    # The root span and the iterations' wall time must agree (the layer
    # self times sum to the root by construction).
    details = {
        "root_s": sum(tracer.attribution().values()),
        "traced_wall_s": sum(run.traced_walls),
    }
    for name, samples in (
        ("serve.overhead_ms_p50", tracer.self_times("ServeClient.simulate")),
        ("dist.lease_rtt_ms_p50", tracer.durations("CoordinatorClient.lease")),
        ("dist.complete_rtt_ms_p50",
         tracer.durations("CoordinatorClient.complete")),
    ):
        if samples:
            details[name] = 1000 * percentile(samples, 50)
    return per_layer, details


def layer_metrics(tracer: spans.Tracer, shares: dict[str, float]) -> dict:
    """Per-layer metrics, averaged per traced iteration."""
    iterations = len(tracer.roots)
    selfs = tracer.attribution()
    root_s = sum(selfs.values())
    calls = tracer.calls()
    counts: Counter = tracer.counts
    metrics: dict[str, float] = {}
    for layer in spans.SPAN_LAYERS:
        metrics[f"{layer}.self_frac"] = selfs.get(layer, 0.0) / root_s
        if layer != spans.ROOT_LAYER:
            metrics[f"{layer}.calls"] = calls[layer] / iterations
    metrics["sim.batch.trials"] = counts["sim.batch.trials"] / iterations
    metrics["sim.batch.fallback_frac"] = ratio(
        counts["sim.batch.fallbacks"], counts["sim.batch.trials"]
    )
    metrics["core.merge_sim.calls_per_s"] = calls["core.merge_sim"] / root_s
    metrics["api.trials"] = counts["api.trials"] / iterations
    metrics["api.per_trial_frac"] = ratio(
        counts["api.trial_runs"], counts["api.trials"]
    )
    metrics["sweep.worker.trials_per_call"] = ratio(
        counts["sweep.worker.trials"], calls["sweep.worker"]
    )
    metrics["sweep.store.get.hit_frac"] = ratio(
        counts["sweep.store.get.hits"], counts["sweep.store.get.calls"]
    )
    for name in (
        "model.trials", "model.sim_time_ms", "model.cpu_stall_ms",
        "model.seek_ms", "model.fetch_requests", "model.demand_situations",
    ):
        metrics[name] = counts[name] / iterations
    metrics["model.success_ratio"] = ratio(
        counts["model.full_prefetch_decisions"], counts["model.fetch_decisions"]
    )
    for layer, share in shares.items():
        metrics[f"self_share.{layer}"] = share
    return metrics
