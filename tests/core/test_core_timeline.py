"""Tests for timeline views over traced trials and their rendering."""

import pytest

from repro.api import configure
from repro.core.merge_sim import MergeTrial
from repro.core.parameters import PrefetchStrategy, SimulationConfig
from repro.obs.collector import TrialTrace
from repro.obs.views import (
    cache_timeline,
    concurrency_timeline,
    downsample,
    render_sparkline,
    utilization_report,
)


def test_downsample_constant_function():
    timeline = [(0.0, 3.0)]
    assert downsample(timeline, 4, 100.0) == [3.0, 3.0, 3.0, 3.0]


def test_downsample_step_change_at_midpoint():
    timeline = [(0.0, 0.0), (50.0, 4.0)]
    assert downsample(timeline, 2, 100.0) == [0.0, 4.0]


def test_downsample_partial_bucket_weighting():
    timeline = [(0.0, 0.0), (25.0, 4.0)]
    # First bucket: 25ms at 0 + 25ms at 4 = mean 2.
    assert downsample(timeline, 2, 100.0) == [2.0, 4.0]


def test_downsample_empty_timeline():
    assert downsample([], 3, 100.0) == [0.0, 0.0, 0.0]


def test_downsample_zero_duration():
    assert downsample([(0.0, 1.0)], 3, 0.0) == [0.0, 0.0, 0.0]


def test_downsample_invalid_buckets():
    with pytest.raises(ValueError):
        downsample([(0.0, 1.0)], 0, 10.0)


def test_sparkline_levels():
    line = render_sparkline([0.0, 0.5, 1.0], maximum=1.0)
    assert len(line) == 3
    assert line[0] == " "
    assert line[2] == "@"


def test_sparkline_clamps_out_of_range():
    line = render_sparkline([-1.0, 2.0], maximum=1.0)
    assert line == " @"


def test_sparkline_requires_positive_maximum():
    with pytest.raises(ValueError):
        render_sparkline([1.0], maximum=0.0)


def _run_with_timelines():
    config = SimulationConfig(
        num_runs=4, num_disks=2, strategy=PrefetchStrategy.INTRA_RUN,
        prefetch_depth=3, blocks_per_run=40, trials=1,
    )
    with configure(trace=True) as ctx:
        MergeTrial(config, seed=5).run()
    return config, ctx.trace.trials[0]


def test_simulation_records_timelines_when_asked():
    _config, trial = _run_with_timelines()
    concurrency = concurrency_timeline(trial)
    cache = cache_timeline(trial)
    assert concurrency[0] == (0.0, 0.0)
    assert cache[0] == (0.0, 0.0)
    # Values stay within physical bounds.
    assert all(0 <= v <= 2 for _t, v in concurrency)
    assert all(0 <= v <= 12 for _t, v in cache)
    times = [t for t, _v in concurrency]
    assert times == sorted(times)


def test_timelines_absent_by_default():
    config = SimulationConfig(
        num_runs=4, num_disks=2, blocks_per_run=20, trials=1,
    )
    trial = MergeTrial(config, seed=5)
    assert trial.cache.trace is None
    assert trial.tracker.trace is None
    data = trial.run().to_dict()
    assert data["concurrency_timeline"] is None
    assert data["cache_timeline"] is None


def test_utilization_report_renders():
    config, trial = _run_with_timelines()
    report = utilization_report(
        trial, num_disks=2, cache_capacity=config.resolved_cache_capacity,
        buckets=20,
    )
    assert "busy disks /2" in report
    assert "cache used /12" in report
    assert "mean busy disks" in report


def test_utilization_report_requires_recording():
    with pytest.raises(ValueError, match="configure\\(trace=True\\)"):
        utilization_report(TrialTrace(0, seed=1), 1, 2)


def test_cli_timeline_flag(capsys):
    from repro.cli import main

    main([
        "simulate", "-k", "4", "-D", "2", "--strategy", "intra-run",
        "-N", "2", "--blocks", "30", "--trials", "1", "--timeline",
    ])
    out = capsys.readouterr().out
    assert "busy disks /2" in out
    assert "95% CI" in out
