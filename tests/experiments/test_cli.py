"""Tests for the command-line interface."""

import json
import re

import pytest

from repro.cli import main


def test_list_prints_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig-3.2a" in out
    assert "tab-urn" in out


def test_paper_check_all_pass(capsys):
    assert main(["paper-check"]) == 0
    out = capsys.readouterr().out
    assert "13/13 analytical checks match" in out
    assert "FAIL" not in out


def test_simulate_small_configuration(capsys):
    code = main([
        "simulate", "-k", "4", "-D", "2", "--strategy", "intra-run",
        "-N", "3", "--blocks", "30", "--trials", "2",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "total time" in out
    assert "k=4 D=2" in out


def test_simulate_inter_run_reports_success_ratio(capsys):
    main([
        "simulate", "-k", "4", "-D", "2", "--strategy", "inter-run",
        "-N", "2", "--blocks", "20", "--trials", "1", "--cache", "40",
    ])
    out = capsys.readouterr().out
    assert "success ratio" in out


def test_selfcheck_passes(capsys):
    assert main(["selfcheck"]) == 0
    out = capsys.readouterr().out
    assert "5/5 simulation checks within tolerance" in out
    assert "FAIL" not in out


def test_predict_prints_estimate(capsys):
    code = main(["predict", "-k", "25", "-D", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "357.1" in out  # the paper's 357.2s baseline
    assert "eq(1)" in out


def test_predict_inter_run_sync(capsys):
    main([
        "predict", "-k", "25", "-D", "5", "--strategy", "inter-run",
        "-N", "10", "--sync",
    ])
    out = capsys.readouterr().out
    assert "17.5" in out or "17.6" in out
    assert "0.703" in out


def test_plan_single_pass(capsys):
    assert main(["plan", "-k", "25", "-D", "5", "--cache", "250",
                 "-N", "10"]) == 0
    out = capsys.readouterr().out
    assert "fan-in 25" in out
    assert "pass 0: 25 runs -> 1" in out


def test_plan_multi_pass(capsys):
    main(["plan", "-k", "100", "--cache", "250", "-N", "10"])
    out = capsys.readouterr().out
    assert "pass 0: 100 runs -> 4" in out
    assert "pass 1: 4 runs -> 1" in out


def test_run_with_overrides_writes_report(tmp_path, capsys):
    report = tmp_path / "report.txt"
    code = main([
        "run", "tab-seek", "--quick", "--trials", "1", "--blocks", "50",
        "--seed", "3", "--out", str(report),
    ])
    assert code == 0
    text = report.read_text()
    assert "tab-seek" in text
    assert "Expected seek moves" in text


def test_run_unknown_experiment_reports_failure(capsys):
    code = main(["run", "fig-9.9z", "--quick"])
    assert code == 1
    out = capsys.readouterr().out
    assert "fig-9.9z FAILED" in out
    assert "1 experiment(s) failed: fig-9.9z" in out


def _sweep_args(cache_dir):
    return [
        "sweep", "-k", "3", "-D", "1,2", "--strategy", "intra-run",
        "-N", "2,3", "--blocks", "30", "--trials", "2", "--workers", "2",
        "--cache-dir", str(cache_dir), "--name", "cli-test", "--quiet",
    ]


def test_sweep_runs_grid_and_caches(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    assert main(_sweep_args(cache_dir)) == 0
    out = capsys.readouterr().out
    assert "4 configurations" in out
    assert "8 total = 8 computed + 0 cached" in out
    assert (cache_dir / "campaigns" / "cli-test.json").is_file()

    # Second invocation: same results, zero simulation.
    assert main(_sweep_args(cache_dir)) == 0
    rerun = capsys.readouterr().out
    assert "8 total = 0 computed + 8 cached" in rerun

    def table_lines(text):
        return [line for line in text.splitlines() if line.startswith("k=3")]

    assert table_lines(rerun) == table_lines(out)


def test_sweep_exports_results_and_progress(tmp_path, capsys):
    export = tmp_path / "sweep.json"
    progress = tmp_path / "progress.json"
    code = main([
        "sweep", "-k", "3", "-D", "1", "--blocks", "20", "--trials", "1",
        "--no-cache", "--quiet",
        "--export", str(export), "--progress-json", str(progress),
    ])
    assert code == 0
    payload = json.loads(export.read_text())
    assert payload["stats"]["computed"] == 1
    assert len(payload["cells"]) == 1
    assert payload["cells"][0]["trials"][0]["total_time_ms"] > 0
    counters = json.loads(progress.read_text())
    assert counters["total"] == 1


def test_run_has_no_engine_options(capsys):
    # The report runs through the trial memo only; a result store
    # (--cache-dir) belongs to sweep/serve/dist.
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "tab-seek", "--quick", "--cache-dir", "cache"])
    assert excinfo.value.code == 2
    assert "--cache-dir" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "all", "--trials", "0"],
        ["run", "all", "--blocks", "0"],
        ["run", "all", "--workers", "0"],
        ["run", "all", "--workers", "two"],
        ["validate", "--blocks", "0"],
    ],
)
def test_run_and_validate_reject_non_positive_counts(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {argv[-2]}" in err
    assert "Traceback" not in err


def test_missing_command_errors():
    with pytest.raises(SystemExit):
        main([])


def test_simulate_trace_prints_timeline(capsys):
    code = main([
        "simulate", "-k", "4", "-D", "2", "--strategy", "intra-run",
        "-N", "2", "--blocks", "20", "--trials", "1", "--trace",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "legend:" in out
    assert "disk-0" in out


def test_simulate_trace_out_writes_valid_chrome_trace(tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    code = main([
        "simulate", "-k", "4", "-D", "2", "--strategy", "intra-run",
        "-N", "2", "--blocks", "20", "--trials", "1",
        "--trace-out", str(trace_path),
    ])
    assert code == 0
    assert "chrome trace" in capsys.readouterr().out
    assert main(["trace", "validate", str(trace_path)]) == 0
    assert "valid Chrome trace" in capsys.readouterr().out


def test_trace_validate_counts_trials_and_events(tmp_path, capsys):
    trace_path = tmp_path / "fig.json"
    args = ["run", "fig-3.5a", "--quick", "--blocks", "20"]
    assert main([*args, "--trace-out", str(trace_path)]) == 0
    capsys.readouterr()
    assert main(["trace", "validate", str(trace_path)]) == 0
    out = capsys.readouterr().out
    assert re.search(
        r"valid Chrome trace, 32 trial\(s\), [1-9]\d* event\(s\)", out
    )


def test_trace_validate_rejects_an_empty_trace(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({
        "traceEvents": [],
        "displayTimeUnit": "ms",
        "otherData": {"source": "repro.obs", "session": "run", "trials": 0},
    }))
    assert main(["trace", "validate", str(empty)]) == 1
    assert "no trace events (0 trial(s))" in capsys.readouterr().out


def test_trace_validate_rejects_garbage(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"traceEvents": [{"ph": "Z"}]}')
    assert main(["trace", "validate", str(bad)]) == 1
    assert "schema violation" in capsys.readouterr().out


def test_run_replays_bench_scenario_with_trace(tmp_path, capsys):
    trace_path = tmp_path / "smoke.json"
    code = main(["run", "smoke-d2", "--trace-out", str(trace_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "scenario      : smoke-d2" in out
    assert "trace check" in out
    assert trace_path.exists()


def test_run_rejects_composite_scenario(capsys):
    assert main(["run", "sweep-batch"]) == 1
    err = capsys.readouterr().err
    assert "cannot be replayed" in err


def test_sweep_trace_requires_single_worker(capsys):
    code = main([
        "sweep", "-k", "3", "-D", "1", "--blocks", "20", "--trials", "1",
        "--no-cache", "--quiet", "--workers", "2", "--trace",
    ])
    assert code == 2
    assert "--workers 1" in capsys.readouterr().err
    # --workers 0 runs inline like --workers 1, so it traces.
    code = main([
        "sweep", "-k", "3", "-D", "1", "--blocks", "20", "--trials", "1",
        "--no-cache", "--quiet", "--workers", "0", "--trace",
    ])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert "legend:" in captured.out


def test_kernel_flag_is_uniform_across_commands():
    from repro.cli import _build_parser

    parser = _build_parser()
    for command in (
        ["run", "tab-seek", "--kernel", "batch"],
        ["simulate", "-k", "4", "-D", "2", "--kernel", "batch"],
        ["sweep", "-k", "4", "-D", "2", "--kernel", "batch"],
    ):
        args = parser.parse_args(command)
        assert args.kernel == "batch"
        assert hasattr(args, "trace")
        assert hasattr(args, "faults")
        assert hasattr(args, "seed")
