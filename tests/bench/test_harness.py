"""The measurement harness: timing, percentiles, report schema."""

import json
from pathlib import Path

import pytest

from repro.bench import (
    BENCH_SCHEMA_VERSION,
    KERNELS,
    REPEATS,
    BenchReport,
    BenchScenario,
    bench_filename,
    get_scenario,
    measure,
    percentile,
    run_scenario,
    scenario_names,
    timed_call,
    validate_report,
)


def test_timed_call_returns_result_and_elapsed():
    result, elapsed_ns = timed_call(lambda: 42)
    assert result == 42
    assert isinstance(elapsed_ns, int) and elapsed_ns >= 0


def test_percentile_interpolates():
    samples = [10, 20, 30, 40, 50]
    assert percentile(samples, 0.5) == 30
    assert percentile(samples, 0.0) == 10
    assert percentile(samples, 1.0) == 50
    assert percentile(samples, 0.25) == 20
    assert percentile([7], 0.9) == 7.0


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1], 1.5)


def test_measure_counts_calls():
    calls = []
    samples = measure(
        {"a": lambda: calls.append("a"), "b": lambda: calls.append("b")},
        repeats=4,
        warmup=2,
    )
    assert calls == ["a", "b"] * 2 + ["a", "b", "b", "a"] * 2
    assert {name: len(times) for name, times in samples.items()} == {
        "a": 4, "b": 4
    }


def test_measure_rejects_bad_repeats():
    with pytest.raises(ValueError):
        measure({"a": lambda: None}, repeats=0)
    with pytest.raises(ValueError):
        measure({"a": lambda: None}, warmup=-1)


def _tiny_scenario() -> BenchScenario:
    return BenchScenario(
        name="unit-tiny",
        description="a trivial workload for harness tests",
        workload_events=100,
        build=lambda kernel: (lambda: sum(range(500))),
    )


def test_run_scenario_produces_valid_report(tmp_path):
    report = run_scenario(_tiny_scenario(), repeats=3, warmup=1)
    data = report.to_dict()
    assert validate_report(data) == []
    assert data["schema_version"] == BENCH_SCHEMA_VERSION
    assert set(data["variants"]) == set(KERNELS)
    reference = report.variants["reference"].samples_ns
    batch = report.variants["batch"].samples_ns
    assert report.ratios == [r / b for r, b in zip(reference, batch)]
    assert report.speedup == sorted(report.ratios)[1]
    assert report.peak_rss_kb > 0
    for variant in report.variants.values():
        assert variant.events_per_sec > 0
        assert len(variant.samples_ns) == 3
    path = report.write(tmp_path / bench_filename(report.scenario))
    assert path.name == "BENCH_unit-tiny.json"
    reloaded = BenchReport.load(path)
    assert reloaded.to_dict() == data


def test_report_render_mentions_speedup():
    text = run_scenario(_tiny_scenario(), repeats=3).render()
    assert "unit-tiny" in text
    assert "speedup" in text


def test_validate_report_flags_corruption(tmp_path):
    report = run_scenario(_tiny_scenario(), repeats=3)
    data = report.to_dict()

    missing = dict(data)
    del missing["workload_events"]
    assert any("workload_events" in e for e in validate_report(missing))

    wrong_schema = json.loads(json.dumps(data))
    wrong_schema["schema_version"] = 99
    assert any("schema_version" in e for e in validate_report(wrong_schema))

    bad_variant = json.loads(json.dumps(data))
    del bad_variant["variants"]["batch"]["median_ns"]
    assert any("median_ns" in e for e in validate_report(bad_variant))

    unpaired = json.loads(json.dumps(data))
    unpaired["variants"]["batch"]["samples_ns"].pop()
    assert any("expected repeats=3" in e for e in validate_report(unpaired))

    assert validate_report([1, 2, 3])  # not even an object

    with pytest.raises(ValueError, match="invalid bench report"):
        BenchReport.from_dict(missing)


def test_registered_scenarios_are_well_formed():
    assert scenario_names() == [
        "merge-d5", "merge-faults-d5", "smoke-d2", "sweep-batch"
    ]
    for name in scenario_names():
        scenario = get_scenario(name)
        assert scenario.workload_events > 0
        for kernel in KERNELS:
            assert callable(scenario.build(kernel))


def test_committed_baselines_cover_the_registry():
    """One schema-valid baseline per scenario, recorded with at least
    REPEATS pairs on the interpreter CI compares on."""
    root = Path(__file__).resolve().parents[2]
    paths = sorted(root.glob("BENCH_*.json"))
    assert [bench_filename(name) for name in scenario_names()] == [
        path.name for path in paths
    ]
    for path in paths:
        report = BenchReport.load(path)
        assert report.repeats >= REPEATS
        assert report.provenance["python"].startswith("3.11.")


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError, match="unknown bench scenario"):
        get_scenario("nope")


def test_smoke_scenario_runs_and_matches_across_kernels():
    """The CI smoke scenario really exercises both kernels on one
    workload — and their simulation results agree."""
    scenario = get_scenario("smoke-d2")
    results = {kernel: scenario.build(kernel)() for kernel in KERNELS}
    reference = results["reference"]
    batched = results["batch"]
    assert [t.to_dict() for t in batched.trials] == [
        t.to_dict() for t in reference.trials
    ]
