"""The per-call trial memo behind ``run_experiments``, ``judge_claims``
and ``repro validate``."""

import dataclasses
import io
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from repro import api
from repro.cli import main
from repro.core.parameters import PrefetchStrategy, SimulationConfig
from repro.core.simulator import MergeSimulation
from repro.experiments import Scale, get_experiment
from repro.experiments.memo import TrialMemo, trial_memo
from repro.experiments.runner import default_experiment_ids, run_experiments
from repro.faults.plan import transient_plan
from repro.experiments.validation import (
    FIGURE_CLAIMS,
    judge_claims,
    render_claim_verdicts,
    render_verdicts,
    validate,
)

TINY = Scale(trials=1, blocks_per_run=40, sweep_density=0.25)

#: Inter-run with room for every D*N fetch at C=200 and above.
ROOMY = SimulationConfig(
    num_runs=6,
    num_disks=3,
    strategy=PrefetchStrategy.INTER_RUN,
    prefetch_depth=4,
    blocks_per_run=30,
    cache_capacity=200,
    trials=2,
)


def _direct(config):
    return api.run_trials([config] * config.trials, trials=range(config.trials))


def test_memo_answers_repeats_and_larger_caches_like_fresh_runs():
    memo = TrialMemo()
    larger = dataclasses.replace(ROOMY, cache_capacity=900)
    with api.configure(backend=memo):
        first = MergeSimulation(ROOMY).run()
        again = MergeSimulation(ROOMY).run()
        derived = MergeSimulation(larger).run()
    assert (memo.simulated, memo.exact, memo.derived) == (2, 2, 2)
    assert first.trials == again.trials == _direct(ROOMY)
    assert derived.trials == _direct(larger)
    assert [m.to_dict() for m in derived.trials] == [
        m.to_dict() for m in _direct(larger)
    ]
    assert derived.config_description == larger.describe()


def test_mutating_a_served_result_changes_no_other():
    memo = TrialMemo()
    with api.configure(backend=memo):
        served = [MergeSimulation(ROOMY).run() for _ in range(3)]
    expected = [m.to_dict() for m in _direct(ROOMY)]
    trial = served[0].trials[0]
    trial.total_time_ms = -1.0
    trial.drive_stats[0].requests = -1
    trial.drive_stats[0].retry_histogram["9"] = 9
    served[1].trials[1].drive_stats.clear()
    with api.configure(backend=memo):
        later = MergeSimulation(ROOMY).run()
    assert [m.to_dict() for m in served[2].trials] == expected
    assert [m.to_dict() for m in later.trials] == expected


def test_fallback_trials_are_rerun_never_memoized(monkeypatch):
    calls = []
    run_trials = api.run_trials

    def counting(configs, **kwargs):
        results = run_trials(configs, **kwargs)
        calls.append([m.fallback for m in results])
        return results

    monkeypatch.setattr(api, "run_trials", counting)
    config = dataclasses.replace(ROOMY, write_disks=1)
    memo = TrialMemo()
    with api.configure(backend=memo):
        first = MergeSimulation(config).run()
        second = MergeSimulation(config).run()
    reason = "the write subsystem requires the event kernel"
    assert calls == [[reason, reason], [reason, reason]]
    assert (memo.simulated, memo.exact, memo.derived) == (4, 0, 0)
    assert first.trials == second.trials


@pytest.mark.slow
def test_quick_suite_fallback_census_is_unchanged(monkeypatch, capsys):
    census = Counter()
    run_trials = api.run_trials

    def counting(configs, **kwargs):
        results = run_trials(configs, **kwargs)
        census.update(m.fallback for m in results if m.fallback)
        return results

    monkeypatch.setattr(api, "run_trials", counting)
    # Serial: the patch counts this process's trials, not a pool's.
    run_experiments(
        default_experiment_ids(), Scale.quick(), stream=io.StringIO(),
        workers=1,
    )
    assert census == {
        "depletion-source": 28,
        "streamed sequential requests (systematic equal-time ties)": 6,
        "the write subsystem requires the event kernel": 6,
        "degenerate rotational latency (equal-time event ties)": 4,
    }
    assert "[trial memo: " in capsys.readouterr().err


def test_run_experiments_reports_its_memo_on_stderr(capsys):
    stream = io.StringIO()
    run_experiments(["fig-3.5a"], TINY, stream=stream)
    err = capsys.readouterr().err
    memo_lines = [line for line in err.splitlines() if "trial memo" in line]
    assert memo_lines == [
        "[trial memo: 5 simulated, 0 exact repeats, 4 derived by capacity]"
    ]
    # The report itself is what the experiment renders without a memo.
    plain = get_experiment("fig-3.5a").run(TINY).render()
    assert stream.getvalue() == plain + "\n\n"


def test_judge_claims_reports_its_memo_on_stderr(capsys):
    claims = [c for c in FIGURE_CLAIMS if c.experiment_id == "fig-3.5a"]
    judge_claims(claims, TINY)
    err = capsys.readouterr().err
    assert err.count("[trial memo: ") == 1


def _memo_counts(err):
    """(simulated, exact, derived) from the one memo line in ``err``."""
    (line,) = [
        line for line in err.splitlines() if line.startswith("[trial memo: ")
    ]
    return tuple(int(count) for count in re.findall(r"\d+", line))


def test_validate_is_one_memo_pass_with_an_unchanged_report(capsys):
    code = main(["validate", "--blocks", "20"])
    out, err = capsys.readouterr()
    one_pass = _memo_counts(err)
    # The two tiers, each under a memo of its own, report the same.
    with trial_memo():
        verdicts = validate(blocks_per_run=20)
    paper = _memo_counts(capsys.readouterr().err)
    claims = judge_claims(
        FIGURE_CLAIMS, dataclasses.replace(Scale.full(), blocks_per_run=20)
    )
    figures = _memo_counts(capsys.readouterr().err)
    assert out == (
        render_verdicts(verdicts) + "\n\n" + render_claim_verdicts(claims) + "\n"
    )
    assert code == (0 if all(v.ok for v in [*verdicts, *claims]) else 1)
    # The one memo sees every trial of both tiers, and runs fewer.
    assert sum(one_pass) == sum(paper) + sum(figures)
    assert one_pass[0] < paper[0] + figures[0]


def test_an_ambient_backend_or_trace_gets_no_memo():
    with api.configure(backend=lambda config: None):
        with trial_memo() as memo:
            assert memo is None
    with api.configure(trace=True):
        with trial_memo() as memo:
            assert memo is None
    with trial_memo() as memo:
        assert api.current_backend() is memo


def test_traced_run_bypasses_the_memo_and_traces_every_trial(
    tmp_path, capsys
):
    path = tmp_path / "fig.jsonl"
    args = ["run", "fig-3.5a", "--quick", "--blocks", "20"]
    assert main([*args, "--trace-out", str(path)]) == 0
    out, err = capsys.readouterr()
    # 16 cache/N cells of fig-3.5a at quick scale, 2 trials each.
    assert "32 trial(s)) written to" in out
    assert "trial memo" not in err



#: Two seeds per configuration, so every configuration the memo misses
#: is pooled.  fig-3.5a derives by capacity; the other two fall back.
POOLED = Scale(trials=2, blocks_per_run=40, sweep_density=0.25)
POOLED_IDS = ["fig-3.5a", "ablation-streaming", "ext-write-traffic"]


@pytest.mark.parametrize("kernel", [None, "reference"])
def test_a_pooled_report_equals_the_serial_one(kernel, capsys):
    runs = []
    for workers in (1, 2):
        stream = io.StringIO()
        with api.configure(kernel=kernel):
            run_experiments(POOLED_IDS, POOLED, stream=stream, workers=workers)
        runs.append((stream.getvalue(), _memo_counts(capsys.readouterr().err)))
    serial, pooled = runs
    assert pooled == serial
    assert serial[1] == (22, 0, 10)


def test_a_runaway_trial_fails_the_same_in_the_pool(monkeypatch):
    # A planted event budget no real trial fits in.
    monkeypatch.setattr(
        SimulationConfig, "event_budget", property(lambda self: 50)
    )
    errors = [
        run_experiments(
            ["fig-3.5a"], POOLED, stream=io.StringIO(), workers=workers
        )[0].error
        for workers in (1, 2)
    ]
    assert errors[0].startswith("TrialBudgetExceeded: ")
    assert errors[1] == errors[0]


def test_a_worker_forked_under_a_fault_plan_runs_later_configs_plan_free():
    plan = transient_plan(0.05)
    other = dataclasses.replace(ROOMY, prefetch_depth=2)
    memo = TrialMemo(workers=2)
    try:
        with api.configure(backend=memo):
            with api.configure(fault_plan=plan):
                faulty = MergeSimulation(ROOMY).run()
                # The pool was forked inside the plan's scope.
                assert multiprocessing.active_children()
            clean = MergeSimulation(other).run()
    finally:
        memo.close()
    assert clean.trials == _direct(other)
    with api.configure(fault_plan=plan):
        assert faulty.trials == _direct(ROOMY)
        # The stale plan would have shown.
        assert _direct(other) != clean.trials


def test_the_pool_starts_lazily_and_no_child_outlives_the_memo():
    def seeds(trials, offset):
        return dataclasses.replace(
            ROOMY, trials=trials, base_seed=ROOMY.base_seed + offset
        )

    with pytest.raises(KeyboardInterrupt):
        with trial_memo(workers=3):
            MergeSimulation(seeds(1, 10)).run()
            assert multiprocessing.active_children() == []
            # As many workers as a configuration has missing seeds.
            MergeSimulation(seeds(2, 20)).run()
            assert len(multiprocessing.active_children()) == 2
            MergeSimulation(seeds(4, 30)).run()
            assert len(multiprocessing.active_children()) == 3
            raise KeyboardInterrupt
    assert multiprocessing.active_children() == []


#: Starts a memo's pool, prints the workers' pids, then waits to be killed.
_POOLED_THEN_WAITING = """
import multiprocessing, sys, time
from repro.core.simulator import simulate_merge
from repro.experiments.memo import trial_memo

with trial_memo(workers=2):
    simulate_merge(6, 3, blocks_per_run=30, trials=2)
    print(*(child.pid for child in multiprocessing.active_children()))
    sys.stdout.flush()
    time.sleep(60)
"""


def _running(pid):
    """Whether ``pid`` is a live (not zombie) process."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_pool_workers_exit_when_the_parent_is_killed():
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    parent = subprocess.Popen(
        [sys.executable, "-c", _POOLED_THEN_WAITING],
        stdout=subprocess.PIPE, text=True, env=env,
    )
    try:
        workers = [int(pid) for pid in parent.stdout.readline().split()]
    finally:
        parent.send_signal(signal.SIGKILL)
        parent.wait(timeout=10)
        parent.stdout.close()
    assert len(workers) == 2
    deadline = time.monotonic() + 10
    while any(map(_running, workers)) and time.monotonic() < deadline:
        time.sleep(0.05)
    stragglers = [pid for pid in workers if _running(pid)]
    for pid in stragglers:
        os.kill(pid, signal.SIGKILL)
    assert stragglers == []
