"""The per-call trial memo behind ``run_experiments`` and ``judge_claims``."""

import dataclasses
import io
from collections import Counter

import pytest

from repro import api
from repro.cli import main
from repro.core.parameters import PrefetchStrategy, SimulationConfig
from repro.core.simulator import MergeSimulation
from repro.experiments import Scale, get_experiment
from repro.experiments.memo import TrialMemo, trial_memo
from repro.experiments.runner import default_experiment_ids, run_experiments
from repro.experiments.validation import FIGURE_CLAIMS, judge_claims
from repro.sweep import SweepEngine

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
    run_experiments(default_experiment_ids(), Scale.quick(), stream=io.StringIO())
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


def test_an_engine_run_never_sees_the_memo(monkeypatch, capsys):
    def refuse(self, config):
        raise AssertionError("the memo answered an engine run")

    monkeypatch.setattr(TrialMemo, "__call__", refuse)
    results = run_experiments(
        ["fig-3.5a"], TINY, stream=io.StringIO(),
        engine=SweepEngine(workers=0),
    )
    assert all(result.ok for result in results)
    assert "trial memo" not in capsys.readouterr().err


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

