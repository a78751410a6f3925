"""Tests of the benchmark itself: ``python -m pytest benchmark/``."""

from __future__ import annotations

import cProfile
import json
import os
import re
import statistics
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import compare  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import yardstick  # noqa: E402
from workloads import Outcome, Workload  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def declaration() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def scratch_tmp(tmp_path, monkeypatch):
    """Workload stores go under the test's tmp_path."""
    import tempfile

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))


# -- span arithmetic -----------------------------------------------------------


def test_nested_spans_self_time():
    # root [0, 10] > a [1, 6] > b [2, 4]; c [7, 8] directly under root.
    events = [
        (0.0, 0, True), (1.0, 1, True), (2.0, 2, True), (4.0, 2, False),
        (6.0, 1, False), (7.0, 3, True), (8.0, 3, False), (10.0, 0, False),
    ]
    selfs = spans.attribute(events, {0})
    assert selfs == {0: 4.0, 1: 3.0, 2: 2.0, 3: 1.0}
    assert sum(selfs.values()) == 10.0


def test_two_thread_spans_self_time():
    # A client span on one thread waits on server spans on another:
    # root [0, 10] > client [1, 9]; server [2, 5] > store [3, 4] and a
    # second server span [6, 7], all on the other thread.
    events = [
        (0.0, 0, True), (1.0, 1, True), (2.0, 2, True), (3.0, 3, True),
        (4.0, 3, False), (5.0, 2, False), (6.0, 4, True), (7.0, 4, False),
        (9.0, 1, False), (10.0, 0, False),
    ]
    selfs = spans.attribute(events, {0})
    assert selfs == {0: 2.0, 1: 4.0, 2: 2.0, 3: 1.0, 4: 1.0}


def test_spans_outside_roots_are_clipped():
    # A server span that outlives the root only counts inside it.
    events = [(0.0, 0, True), (1.0, 1, True), (2.0, 0, False), (3.0, 1, False)]
    assert spans.attribute(events, {0}) == {0: 1.0, 1: 1.0}


def test_tracer_threads_sum_to_root():
    """Real wrapped calls on two threads add up to the root span."""
    tracer = spans.Tracer()
    slow = tracer.wrap("dist.wait", time.sleep)

    def server():
        for _ in range(3):
            slow(0.01)

    with tracer.root():
        worker = threading.Thread(target=server)
        worker.start()
        slow(0.02)
        worker.join(10)
    assert not worker.is_alive()
    selfs = tracer.attribution()
    root = tracer.events[-1][0] - tracer.events[0][0]
    assert sum(selfs.values()) == pytest.approx(root, rel=1e-9)
    assert tracer.calls()["dist.wait"] == 4
    assert selfs["dist.wait"] > 0.9 * 0.02


# -- patching ------------------------------------------------------------------


def _originals() -> dict:
    return {entry: spans._resolve(entry)[2] for entry in spans.ENTRY_POINTS}


def _installed_wrappers(originals: dict) -> list[str]:
    """Module or class attributes that currently hold a wrapper."""
    wrapped = {id(original) for original in originals.values()}
    found = []
    for module in spans._repro_modules():
        for name, value in list(vars(module).items()):
            holders = [value]
            if isinstance(value, type):
                holders += list(vars(value).values())
            for holder in holders:
                if id(getattr(holder, "__wrapped__", None)) in wrapped:
                    found.append(f"{module.__name__}.{name}")
    return found


def test_traced_run_restores_every_attribute():
    tracer = spans.Tracer()
    originals = _originals()
    tracer.install()
    try:
        from repro.sweep import engine, worker

        (execute_job,) = [
            original for entry, original in originals.items()
            if entry.qualname == "execute_job"
        ]
        assert engine.execute_job is not execute_job
        assert engine.execute_job is worker.execute_job
        assert _installed_wrappers(originals)
    finally:
        tracer.uninstall()
    assert _originals() == originals
    assert _installed_wrappers(originals) == []


class _Fixed(Workload):
    """A cheap stand-in workload with a chosen output digest."""

    name = "campaign-cold"

    def __init__(self, digests):
        self.digests = iter(digests)

    def iterate(self, tracer=None):
        return next(self.digests)

    def check(self, digest):
        return Outcome(ops=1, failures=[], digest=digest)


def test_untraced_run_installs_no_wrapper():
    originals = _originals()
    run_ = measure.Run(_Fixed(["x", "x"]), seed=7)
    run_.iteration()
    run_.iteration()
    assert _installed_wrappers(originals) == []
    assert (run_.ops, run_.failed) == (2, 0)


# -- emitted metrics ------------------------------------------------------------


def test_traced_metrics_match_declaration():
    decl = declaration()
    originals = _originals()
    report = measure.measure(
        "campaign-warm", 7, 0.0, trace=True, setup_only=False,
        started=time.perf_counter(),
    )
    assert _installed_wrappers(originals) == []
    per_layer = report["per_layer"]
    assert set(per_layer) == {m["name"] for m in decl["per_layer"]}
    assert all(NAME.match(name) for name in per_layer)
    fracs = [v for k, v in per_layer.items() if k.endswith(".self_frac")]
    shares = [v for k, v in per_layer.items() if k.startswith("self_share.")]
    assert sum(fracs) == pytest.approx(1.0)
    assert sum(shares) == pytest.approx(1.0)
    details = report["details"]
    assert details["root_s"] == pytest.approx(details["traced_wall_s"], rel=0.01)
    assert report["failed"] == 0


def test_end_to_end_record_matches_declaration(tmp_path):
    decl = declaration()
    record = run.run_workload("campaign-cold", 7, 0.0, False, tmp_path)
    assert set(record["metrics"]) == {m["name"] for m in decl["end_to_end"]}
    assert all(NAME.match(name) for name in record["metrics"])
    assert all(metric["value"] > 0 for metric in record["metrics"].values())
    line = json.loads(run.contract_line(record))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1


def test_yardstick_keeps_collector_state():
    import gc

    assert gc.isenabled()
    times = yardstick.sample(0.0)
    assert len(times) == 1 and times[0] > 0
    assert gc.isenabled()
    gc.disable()
    try:
        assert sum(yardstick.sample(0.05)) >= 0.05
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_declared_names_are_well_formed():
    decl = declaration()
    names = [
        item["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for item in decl[key]
    ]
    assert all(NAME.match(name) and len(name) <= 64 for name in names)
    assert len(set(names)) == len(names)
    assert set(decl["workloads"][i]["name"] for i in range(5)) == set(
        measure.WORKLOADS
    )


# -- correctness checks ----------------------------------------------------------


def test_planted_digest_mismatch_counts_as_failure(monkeypatch):
    monkeypatch.setattr(
        measure, "pinned_digests", lambda: {"campaign-cold": "expected"}
    )
    run_ = measure.Run(_Fixed(["planted"]), seed=measure.PINNED_SEED)
    run_.iteration()
    assert run_.failed == 1 and run_.ops == 1
    assert "pinned" in run_.messages[0]


def test_changing_digest_and_reference_mismatch_fail():
    run_ = measure.Run(_Fixed(["a", "b", "a"]), seed=7)
    for _ in range(3):
        run_.iteration()
    assert run_.failed == 1
    run_.workload.reference = lambda: "c"
    run_.cross_check()
    assert run_.failed == 3


def test_compare_verdicts():
    assert compare.verdict([1.0, 1.01, 0.99], [1.3, 1.31, 1.29], "lower", 0.1) == "worse"
    assert compare.verdict([1.0, 1.01, 0.99], [0.8, 0.81, 0.79], "lower", 0.1) == "better"
    assert compare.verdict([1.0, 1.01], [1.02, 1.03], "lower", 0.1) == "unchanged"
    assert compare.verdict([1.0, 2.0, 1.5], [1.4, 1.5], "lower", 0.1) == "unresolved"
    assert compare.verdict([10.0, 9.0], [20.0, 21.0], "higher", 0.1) == "better"


# -- planted slowdown attribution ------------------------------------------------

#: A wrapper with a fixed busy cost, compiled under core/cache.py's
#: filename: the profiler charges its call and its loop to core.cache,
#: as it would charge a real slowdown in that file.  Under the profiler
#: it adds about a fifth to the layer's self time (the test checks the
#: size).
_PLANTED = """
def planted(original):
    def method(*args, **kwargs):
        spin = 0
        while spin < 3:
            spin += 1
        return original(*args, **kwargs)
    return method
"""


def _cache_share(config) -> float:
    """self_share of core.cache on four trials of ``config``."""
    import repro
    from repro.api import run_trials

    profiler = cProfile.Profile()
    profiler.enable()
    run_trials([config] * 4, trials=[0, 1, 2, 3])
    profiler.disable()
    root = str(Path(repro.__file__).parent) + os.sep
    return spans.profile_shares([profiler], root)["core.cache"]


def _odds(share: float) -> float:
    """core.cache time over everything else's: independent of host speed."""
    return share / (1.0 - share)


def test_planted_cache_slowdown_moves_its_share(monkeypatch):
    from repro.core import cache
    from repro.core.parameters import PrefetchStrategy, SimulationConfig

    # fig-3.5a's shape (k=25, D=5, inter-run, N=5), shrunk to 30 blocks.
    config = SimulationConfig(
        num_runs=25, num_disks=5, strategy=PrefetchStrategy.INTER_RUN,
        prefetch_depth=5, cache_capacity=250, blocks_per_run=30,
        base_seed=1992,
    )
    _cache_share(config)  # warm-up: first-call costs are not the layer's

    namespace: dict = {}
    exec(compile(_PLANTED, cache.__file__, "exec"), namespace)
    # Alternate plain and planted samples, so a change of host speed
    # mid-test falls on both sides.
    base, planted = [], []
    for _ in range(5):
        base.append(_cache_share(config))
        with monkeypatch.context() as patch:
            for cls in (cache.BlockCache, cache.RunCacheState):
                for name, value in list(vars(cls).items()):
                    if callable(value) and not name.startswith("_"):
                        patch.setattr(cls, name, namespace["planted"](value))
            planted.append(_cache_share(config))
    rise = statistics.median(planted) - statistics.median(base)
    slowdown = _odds(statistics.median(planted)) / _odds(statistics.median(base)) - 1
    assert 0.1 < slowdown < 0.4  # the plant is a ~20% slowdown of the layer
    low, _, high = statistics.quantiles(base, n=4)
    assert rise > high - low  # the benchmark's spread: quartile distance
