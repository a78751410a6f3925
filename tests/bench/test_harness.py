"""The measurement harness: timing, percentiles, report schema."""

import json

import pytest

from repro.bench import (
    BENCH_SCHEMA_VERSION,
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
    measurement = measure(lambda: calls.append(1), repeats=4, warmup=2)
    assert len(calls) == 6
    assert len(measurement.samples_ns) == 4
    assert measurement.p10_ns <= measurement.median_ns <= measurement.p90_ns


def test_measure_rejects_bad_repeats():
    with pytest.raises(ValueError):
        measure(lambda: None, repeats=0)
    with pytest.raises(ValueError):
        measure(lambda: None, warmup=-1)


def _tiny_scenario() -> BenchScenario:
    return BenchScenario(
        name="unit-tiny",
        description="a trivial workload for harness tests",
        workload_events=100,
        build=lambda kernel: (lambda: sum(range(500))),
        repeats=3,
        warmup=1,
    )


def test_run_scenario_produces_valid_report(tmp_path):
    report = run_scenario(_tiny_scenario())
    data = report.to_dict()
    assert validate_report(data) == []
    assert data["schema_version"] == BENCH_SCHEMA_VERSION
    # The default kernel list comes from the registry, so the harness
    # measures every registered kernel.
    assert set(data["variants"]) == {"reference", "batch"}
    variants = report.variants
    assert report.speedup == (
        variants["reference"].median_ns / variants["batch"].median_ns
    )
    for variant in report.variants.values():
        assert variant.events_per_sec > 0
        assert variant.peak_rss_kb > 0
        assert len(variant.samples_ns) == 3
    path = report.write(tmp_path / bench_filename(report.scenario))
    assert path.name == "BENCH_unit-tiny.json"
    reloaded = BenchReport.load(path)
    assert reloaded.to_dict() == data


def test_report_render_mentions_speedup():
    text = run_scenario(_tiny_scenario()).render()
    assert "unit-tiny" in text
    assert "speedup" in text


def test_validate_report_flags_corruption(tmp_path):
    report = run_scenario(_tiny_scenario())
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

    assert validate_report([1, 2, 3])  # not even an object

    with pytest.raises(ValueError, match="invalid bench report"):
        BenchReport.from_dict(missing)


def test_registered_scenarios_are_well_formed():
    names = scenario_names()
    assert "merge-d5" in names
    assert "smoke-d2" in names
    for name in names:
        scenario = get_scenario(name)
        assert scenario.workload_events > 0
        assert scenario.repeats >= 1
        for kernel in scenario.kernels:
            assert callable(scenario.build(kernel))


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError, match="unknown bench scenario"):
        get_scenario("nope")


def test_smoke_scenario_runs_and_matches_across_kernels():
    """The CI smoke scenario really exercises both kernels on one
    workload — and their simulation results agree."""
    scenario = get_scenario("smoke-d2")
    results = {kernel: scenario.build(kernel)() for kernel in scenario.kernels}
    reference = results["reference"]
    batched = results["batch"]
    assert [t.to_dict() for t in batched.trials] == [
        t.to_dict() for t in reference.trials
    ]
