"""SweepEngine: determinism, caching, resume, retries, timeouts."""

import json
import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro import api
from repro.core.parameters import SimulationConfig
from repro.core.simulator import MergeSimulation
from repro.faults.plan import FaultPlan, OutageFault, transient_plan
from repro.sweep import (
    NullProgress,
    ResultStore,
    SweepEngine,
    SweepError,
    SweepSpec,
    SweepStats,
)
from repro.sweep.worker import execute_batch, execute_job

#: 12 cells x 2 trials = 24 jobs — covers the ">= 20 jobs, workers=4"
#: acceptance criterion while staying fast (30-block runs).
SPEC = SweepSpec(
    name="engine-test",
    base={"num_runs": 4, "strategy": "intra-run", "blocks_per_run": 30},
    grid={
        "num_disks": [1, 2],
        "prefetch_depth": [1, 2, 3],
        "synchronized": [False, True],
    },
    trials=2,
    base_seed=5,
)


def _serial_reference(spec):
    return [MergeSimulation(config).run() for config in spec.cells()]


def _dump(cells):
    return json.dumps([cell.to_dict() for cell in cells])


def test_parallel_sweep_matches_serial_byte_for_byte(tmp_path):
    engine = SweepEngine(store=ResultStore(tmp_path), workers=4)
    result = engine.run_spec(SPEC)
    assert len(SPEC.jobs()) >= 20
    assert result.stats.computed == len(SPEC.jobs())
    assert _dump(result.cells) == _dump(_serial_reference(SPEC))


def test_rerun_is_all_cache_hits_and_identical(tmp_path):
    store = ResultStore(tmp_path)
    first = SweepEngine(store=store, workers=2).run_spec(SPEC)
    second = SweepEngine(store=store, workers=2).run_spec(SPEC)
    assert second.stats.computed == 0
    assert second.stats.cached == second.stats.total == len(SPEC.jobs())
    assert second.stats.cache_hit_ratio == 1.0
    assert _dump(second.cells) == _dump(first.cells)


def test_interrupted_campaign_resumes_remaining_jobs_only(tmp_path):
    store = ResultStore(tmp_path)
    jobs = SPEC.jobs()
    full = SweepEngine(store=store, workers=2).run_spec(SPEC)

    # Simulate a kill mid-run: drop the cache entries of the last 10
    # jobs, as if they had never completed.
    for job in jobs[-10:]:
        store.path_for(job.key).unlink()

    resumed = SweepEngine(store=store, workers=2).run_spec(SPEC)
    assert resumed.stats.cached == len(jobs) - 10
    assert resumed.stats.computed == 10
    assert _dump(resumed.cells) == _dump(full.cells)


def test_inline_engine_matches_pool(tmp_path):
    pooled = SweepEngine(store=ResultStore(tmp_path / "a"), workers=4)
    inline = SweepEngine(store=ResultStore(tmp_path / "b"), workers=1)
    assert _dump(pooled.run_spec(SPEC).cells) == _dump(inline.run_spec(SPEC).cells)


def test_a_pooled_sweep_honours_an_ambient_fault_plan_like_an_inline_one(
    tmp_path,
):
    # The engine resolves each config under this process's ambient
    # options; a pool worker runs what it is sent under none.
    spec = SweepSpec(
        name="ambient",
        base={"num_runs": 4, "num_disks": 2, "blocks_per_run": 30},
        grid={"prefetch_depth": [1, 2]},
        trials=2,
    )
    stored = []
    with api.configure(fault_plan=transient_plan(0.05)):
        for workers in (1, 2):
            store = ResultStore(tmp_path / f"w{workers}")
            SweepEngine(store=store, workers=workers).run_spec(spec)
            stored.append([store.get(job.key).to_dict() for job in spec.jobs()])
    assert stored[1] == stored[0]
    plan_free = SweepEngine(workers=2).run_spec(spec).cells
    assert [t.to_dict() for cell in plan_free for t in cell.trials] != stored[0]


def test_inline_and_pooled_engines_count_the_same_fallbacks(tmp_path):
    # Write disks are outside the batch interpreter's envelope: every
    # computed trial runs on the reference kernel, in a pool process or
    # inline, and cache hits are not counted again.
    spec = SweepSpec(
        name="fallbacks",
        base={"num_runs": 3, "blocks_per_run": 20, "write_disks": 1},
        grid={"num_disks": [1, 2]},
        trials=2,
    )
    expected = {"the write subsystem requires the event kernel": 4}
    counted = []
    for workers in (1, 2):
        store = ResultStore(tmp_path / f"w{workers}")
        stats = SweepEngine(store=store, workers=workers).run_spec(spec).stats
        assert stats.fallbacks == expected
        assert "fallbacks to the reference kernel: 4 (the write" in (
            stats.summary()
        )
        assert SweepStats.from_dict(stats.to_dict()).fallbacks == expected
        counted.append(stats.fallbacks)
        warm = SweepEngine(store=store, workers=workers).run_spec(spec).stats
        assert warm.fallbacks == {} and "fallbacks" not in warm.summary()
    assert counted[0] == counted[1]


def test_inline_and_pooled_engines_settle_the_same_outcomes(tmp_path):
    # Half the cells always fail (their one input drive is offline for
    # good) and half run off the batch interpreter (a write disk).  With
    # two trials a cell, the inline engine tries each cell as one batch
    # first and the pooled engine runs trial by trial; both must settle
    # the same cells, failures and counts.
    outage = FaultPlan(outages=(OutageFault(drive=0, start_ms=0.0),))
    spec = SweepSpec(
        name="outcomes",
        base={"num_runs": 3, "num_disks": 1, "blocks_per_run": 20},
        grid={"fault_plan": [None, outage.to_dict()], "write_disks": [0, 1]},
        trials=2,
    )
    settled = []
    for workers in (1, 2):
        store = ResultStore(tmp_path / f"w{workers}")
        result = SweepEngine(
            store=store, workers=workers, retries=2, allow_partial=True
        ).run_spec(spec)
        stats = result.stats
        settled.append((
            _dump(result.cells),
            result.failures,
            stats.computed,
            stats.cached,
            stats.failed,
            stats.retries,
            stats.fallbacks,
        ))
    assert settled[0] == settled[1]
    _cells, failures, computed, cached, failed, retries, fallbacks = settled[0]
    assert (computed, cached, failed) == (4, 0, 4)
    assert retries == 4 * 2  # every failing trial, each retry
    assert {failure.attempts for failure in failures} == {3}
    assert all("DriveOfflineError" in failure.error for failure in failures)
    assert fallbacks == {"the write subsystem requires the event kernel": 2}


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the planted exit reaches pool processes by fork",
)
def test_a_dead_pool_process_raises_out_of_the_sweep(monkeypatch, tmp_path):
    # A dead worker breaks the pool, not a job: the sweep raises and
    # records no JobFailure, whatever the retry budget.
    def dying(payload):
        if payload["trial"] == 1:
            os._exit(3)
        return execute_job(payload)

    monkeypatch.setattr("repro.sweep.worker.execute_job", dying)
    spec = SweepSpec(base={"num_runs": 2, "num_disks": 1,
                           "blocks_per_run": 20}, trials=3)
    for retries in (0, 1):
        engine = SweepEngine(store=ResultStore(tmp_path), workers=2,
                             retries=retries, allow_partial=True)
        with pytest.raises(BrokenProcessPool):
            engine.run_spec(spec)


def test_inline_engine_batches_reference_cells(monkeypatch, tmp_path):
    # The engine does not know kernels: every multi-trial cell is one
    # execute_batch call, and run_trials runs reference trials one by
    # one without entering the batch interpreter.
    calls = []

    def spy(payload):
        calls.append(payload)
        return execute_batch(payload)

    def no_interpreter(config, seeds):
        raise AssertionError("reference trials reached run_trial_batch")

    monkeypatch.setattr("repro.sweep.worker.execute_batch", spy)
    monkeypatch.setattr("repro.sim.batch.run_trial_batch", no_interpreter)
    spec = SweepSpec(
        name="engine-reference",
        base={"num_runs": 3, "blocks_per_run": 25, "kernel": "reference"},
        grid={"num_disks": [1, 2]},
        trials=3,
        base_seed=42,
    )
    result = SweepEngine(store=ResultStore(tmp_path), workers=1).run_spec(spec)
    assert [len(payload["trials"]) for payload in calls] == [3, 3]
    assert {payload["config"]["kernel"] for payload in calls} == {"reference"}
    assert result.stats.computed == len(spec.jobs())
    assert _dump(result.cells) == _dump(_serial_reference(spec))


def test_uncached_engine_recomputes_every_time():
    engine = SweepEngine(store=None, workers=1)
    small = SweepSpec(base={"num_runs": 2, "num_disks": 1,
                            "blocks_per_run": 20}, trials=2)
    first = engine.run_spec(small)
    second = engine.run_spec(small)
    assert first.stats.computed == second.stats.computed == 2


def test_run_config_equals_merge_simulation(tmp_path):
    config = SimulationConfig(num_runs=3, num_disks=2, blocks_per_run=25,
                              trials=3, base_seed=42)
    engine = SweepEngine(store=ResultStore(tmp_path), workers=2)
    via_engine = engine.run_config(config)
    serial = MergeSimulation(config).run()
    assert json.dumps(via_engine.to_dict()) == json.dumps(serial.to_dict())


def test_failures_are_retried_then_raised(monkeypatch):
    calls = {"n": 0}

    def flaky(payload):
        calls["n"] += 1
        raise RuntimeError("worker crashed")

    monkeypatch.setattr("repro.sweep.worker.execute_job", flaky)
    spec = SweepSpec(base={"num_runs": 2, "num_disks": 1,
                           "blocks_per_run": 20}, trials=1)
    engine = SweepEngine(store=None, workers=1, retries=2)
    with pytest.raises(SweepError, match="worker crashed"):
        engine.run_spec(spec)
    assert calls["n"] == 3  # initial attempt + 2 retries


def test_transient_failure_recovers_on_retry(monkeypatch, tmp_path):
    calls = {"n": 0}

    def flaky_once(payload):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("transient")
        return execute_job(payload)

    monkeypatch.setattr("repro.sweep.worker.execute_job", flaky_once)
    spec = SweepSpec(base={"num_runs": 2, "num_disks": 1,
                           "blocks_per_run": 20}, trials=1)
    engine = SweepEngine(store=ResultStore(tmp_path), workers=1, retries=1)
    result = engine.run_spec(spec)
    assert result.stats.computed == 1
    assert result.stats.retries == 1
    assert not result.failures


def test_allow_partial_keeps_surviving_cells(monkeypatch):
    def always_fail(payload):
        raise RuntimeError("boom")

    monkeypatch.setattr("repro.sweep.worker.execute_job", always_fail)
    spec = SweepSpec(base={"num_runs": 2, "num_disks": 1,
                           "blocks_per_run": 20}, trials=1)
    engine = SweepEngine(store=None, workers=1, retries=0, allow_partial=True)
    result = engine.run_spec(spec)
    assert result.stats.failed == 1
    assert len(result.failures) == 1
    assert result.cells[0].trials == []


def test_runaway_job_fails_with_budget_error(monkeypatch):
    # A planted event budget no real trial fits in.
    monkeypatch.setattr(
        SimulationConfig, "event_budget", property(lambda self: 50)
    )
    spec = SweepSpec(
        base={"num_runs": 20, "num_disks": 1, "blocks_per_run": 2000},
        trials=1,
    )
    engine = SweepEngine(store=None, workers=1, retries=0,
                         allow_partial=True)
    result = engine.run_spec(spec)
    assert result.stats.failed == 1
    assert "TrialBudgetExceeded" in result.failures[0].error


def test_stats_counters_and_export(tmp_path):
    stats = SweepStats(total=4)
    stats.count("computed")
    stats.count("cached")
    stats.count("failed")
    stats.wall_s = 2.0
    assert stats.done == 3
    assert stats.throughput == pytest.approx(1.5)
    path = stats.export_json(tmp_path / "stats.json")
    payload = json.loads(path.read_text())
    assert payload["computed"] == 1
    assert payload["cache_hit_ratio"] == 0.25
    with pytest.raises(ValueError):
        stats.count("bogus")


def test_progress_listener_receives_every_event(tmp_path):
    events = []

    class Recorder(NullProgress):
        def on_begin(self, stats):
            events.append(("begin", stats.total))

        def on_job(self, job, outcome, stats):
            events.append((outcome, job.index))

        def on_end(self, stats):
            events.append(("end", stats.done))

    spec = SweepSpec(base={"num_runs": 2, "num_disks": 1,
                           "blocks_per_run": 20}, trials=2)
    engine = SweepEngine(store=ResultStore(tmp_path), workers=1,
                         progress=Recorder())
    engine.run_spec(spec)
    assert events[0] == ("begin", 2)
    assert events[-1] == ("end", 2)
    assert ("computed", 0) in events and ("computed", 1) in events
