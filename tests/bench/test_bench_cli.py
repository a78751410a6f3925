"""End-to-end CLI coverage for ``repro bench`` and ``--kernel`` flags."""

import json

import pytest

from repro.bench import validate_report
from repro.cli import main


def test_bench_list(capsys):
    assert main(["bench", "list"]) == 0
    out = capsys.readouterr().out
    assert "merge-d5" in out
    assert "smoke-d2" in out


def test_bench_run_writes_valid_report(tmp_path, capsys):
    code = main([
        "bench", "run",
        "--scenario", "smoke-d2",
        "--repeats", "1",
        "--warmup", "0",
        "--out-dir", str(tmp_path),
    ])
    assert code == 0
    path = tmp_path / "BENCH_smoke-d2.json"
    assert path.exists()
    data = json.loads(path.read_text())
    assert validate_report(data) == []
    # smoke-d2 inherits the registry default, so every registered
    # kernel gets a variant.
    assert set(data["variants"]) == {"reference", "batch"}
    assert "speedup" in capsys.readouterr().out


def test_bench_run_unknown_scenario(tmp_path, capsys):
    code = main([
        "bench", "run", "--scenario", "nope", "--out-dir", str(tmp_path)
    ])
    assert code == 2
    assert "unknown bench scenario" in capsys.readouterr().err


def test_bench_compare_cli(tmp_path, capsys):
    main([
        "bench", "run",
        "--scenario", "smoke-d2",
        "--repeats", "1",
        "--warmup", "0",
        "--out-dir", str(tmp_path),
    ])
    capsys.readouterr()
    path = str(tmp_path / "BENCH_smoke-d2.json")
    assert main(["bench", "compare", path, path, "--threshold", "0.5"]) == 0
    assert "no regressions" in capsys.readouterr().out


def test_bench_compare_detects_regression(tmp_path, capsys):
    main([
        "bench", "run",
        "--scenario", "smoke-d2",
        "--repeats", "1",
        "--warmup", "0",
        "--out-dir", str(tmp_path),
    ])
    capsys.readouterr()
    baseline_path = tmp_path / "BENCH_smoke-d2.json"
    slower = json.loads(baseline_path.read_text())
    for variant in slower["variants"].values():
        variant["median_ns"] *= 10.0
    slower_path = tmp_path / "slower.json"
    slower_path.write_text(json.dumps(slower))
    code = main([
        "bench", "compare", str(baseline_path), str(slower_path),
        "--threshold", "2.0",
    ])
    assert code == 1
    assert "REGRESSED" in capsys.readouterr().out


def test_bench_compare_notes_untracked_variants(tmp_path, capsys):
    """A kernel with no committed baseline variant is noted on stderr,
    not raised: stale baselines must not block newly registered
    kernels."""
    main([
        "bench", "run",
        "--scenario", "smoke-d2",
        "--repeats", "1",
        "--warmup", "0",
        "--out-dir", str(tmp_path),
    ])
    capsys.readouterr()
    current_path = tmp_path / "BENCH_smoke-d2.json"
    stale = json.loads(current_path.read_text())
    del stale["variants"]["batch"]
    stale["speedup"] = None
    baseline_path = tmp_path / "baseline.json"
    baseline_path.write_text(json.dumps(stale))
    code = main([
        "bench", "compare", str(baseline_path), str(current_path),
        "--threshold", "0.5",
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "no regressions" in captured.out
    assert "no baseline for variant(s) batch" in captured.err
    assert "repro bench run" in captured.err


def test_bench_compare_missing_baseline_names_the_fix(tmp_path, capsys):
    """Day-one UX: no baseline yet must say how to create one, not dump
    a FileNotFoundError traceback."""
    missing = tmp_path / "BENCH_never-ran.json"
    code = main(["bench", "compare", str(missing), str(missing)])
    assert code == 2
    err = capsys.readouterr().err
    assert str(missing) in err
    assert "no baseline report" in err
    assert "repro bench run" in err


def test_bench_compare_rejects_corrupt_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    code = main(["bench", "compare", str(bad), str(bad)])
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("kernel", ["reference", "batch"])
def test_simulate_kernel_flag(kernel, capsys):
    code = main([
        "simulate", "-k", "4", "-D", "2",
        "--strategy", "intra-run", "-N", "2",
        "--blocks", "20", "--trials", "1", "--kernel", kernel,
    ])
    assert code == 0
    assert "total time" in capsys.readouterr().out


def test_simulate_kernel_outputs_match(capsys):
    outputs = []
    for kernel in ("reference", "batch"):
        main([
            "simulate", "-k", "4", "-D", "2",
            "--strategy", "intra-run", "-N", "2",
            "--blocks", "20", "--trials", "1", "--kernel", kernel,
        ])
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_sweep_kernel_flag_shares_cache(tmp_path, capsys):
    """A reference-kernel sweep fully warms the cache for a batch-kernel
    rerun of the same grid: the second pass must be 100% hits."""
    common = [
        "sweep", "-k", "4", "-D", "1,2", "--strategy", "intra-run",
        "-N", "2", "--blocks", "20", "--trials", "1", "--quiet",
        "--cache-dir", str(tmp_path / "cache"),
        "--progress-json", str(tmp_path / "progress.json"),
    ]
    assert main(common + ["--kernel", "reference", "--name", "ref"]) == 0
    assert main(common + ["--kernel", "batch", "--name", "batch"]) == 0
    capsys.readouterr()
    progress = json.loads((tmp_path / "progress.json").read_text())
    assert progress["total"] == 2  # D in {1, 2}
    assert progress["computed"] == 0
    assert progress["cached"] == 2
