"""The bench comparator: regression verdicts and mismatch handling."""

import pytest

from repro.bench import (
    BenchReport,
    VariantResult,
    compare_reports,
    missing_baseline_variants,
    regressions,
    render_comparison,
)


def _report(scenario: str, medians: dict[str, float]) -> BenchReport:
    variants = {
        kernel: VariantResult(
            kernel=kernel,
            repeats=3,
            warmup=1,
            median_ns=median,
            p10_ns=median * 0.9,
            p90_ns=median * 1.1,
            samples_ns=[int(median)] * 3,
            events_per_sec=1e9 / median,
            peak_rss_kb=1000,
        )
        for kernel, median in medians.items()
    }
    return BenchReport(
        scenario=scenario,
        description="synthetic",
        workload_events=1,
        variants=variants,
        speedup=None,
        provenance={},
    )


def test_identical_reports_pass():
    baseline = _report("s", {"reference": 1e6, "batch": 5e5})
    rows = compare_reports(baseline, baseline, threshold=0.25)
    assert len(rows) == 2
    assert regressions(rows) == []
    assert all(row.ratio == 1.0 for row in rows)


def test_regression_detected_per_variant():
    baseline = _report("s", {"reference": 1e6, "batch": 5e5})
    current = _report("s", {"reference": 1e6, "batch": 7e5})  # batch 1.4x
    rows = compare_reports(baseline, current, threshold=0.25)
    regressed = regressions(rows)
    assert [row.kernel for row in regressed] == ["batch"]
    assert "REGRESSED" in render_comparison(rows)


def test_speedup_never_fails():
    baseline = _report("s", {"reference": 1e6})
    current = _report("s", {"reference": 1e5})  # 10x faster
    assert regressions(compare_reports(baseline, current, 0.25)) == []


def test_threshold_boundary():
    baseline = _report("s", {"reference": 100.0})
    at_limit = _report("s", {"reference": 125.0})
    beyond = _report("s", {"reference": 126.0})
    assert regressions(compare_reports(baseline, at_limit, 0.25)) == []
    assert len(regressions(compare_reports(baseline, beyond, 0.25))) == 1


def test_scenario_mismatch_rejected():
    with pytest.raises(ValueError, match="scenario mismatch"):
        compare_reports(
            _report("a", {"reference": 1.0}),
            _report("b", {"reference": 1.0}),
        )


def test_dropped_variant_rejected():
    baseline = _report("s", {"reference": 1e6, "batch": 5e5})
    current = _report("s", {"reference": 1e6})
    with pytest.raises(ValueError, match="missing variant 'batch'"):
        compare_reports(baseline, current)


def test_new_variant_compares_shared_and_reports_the_rest():
    """A kernel registered after the baseline was committed must not
    break the comparison: shared variants get verdicts, the new one is
    listed for a baseline refresh."""
    baseline = _report("s", {"reference": 1e6, "batch": 5e5})
    current = _report("s", {"reference": 1e6, "batch": 5e5, "scratch": 2e5})
    rows = compare_reports(baseline, current, threshold=0.25)
    assert sorted(row.kernel for row in rows) == ["batch", "reference"]
    assert regressions(rows) == []
    assert missing_baseline_variants(baseline, current) == ["scratch"]
    assert missing_baseline_variants(baseline, baseline) == []


def test_bad_threshold_rejected():
    report = _report("s", {"reference": 1.0})
    with pytest.raises(ValueError, match="threshold"):
        compare_reports(report, report, threshold=0.0)
