"""The bench comparator: the paired-speedup gate and mismatch handling."""

import random

import pytest

from repro.bench import (
    MEDIAN_LIMIT,
    BenchReport,
    VariantResult,
    compare_reports,
)


def _samples(median_ns: float, seed: int, repeats: int = 10) -> list[int]:
    """``repeats`` synthetic timings within ±10% of ``median_ns``."""
    rng = random.Random(seed)
    return [int(median_ns * rng.uniform(0.9, 1.1)) for _ in range(repeats)]


def _report(
    reference_ns: list[int],
    batch_ns: list[int],
    scenario: str = "s",
    python: str = "3.11.7",
) -> BenchReport:
    variants = {
        kernel: VariantResult.from_samples(kernel, samples, 1)
        for kernel, samples in (
            ("reference", reference_ns), ("batch", batch_ns)
        )
    }
    return BenchReport(
        scenario=scenario,
        description="synthetic",
        workload_events=1,
        repeats=len(reference_ns),
        warmup=1,
        variants=variants,
        peak_rss_kb=1000,
        provenance={"python": python},
    )


def _run(seed: int, batch_factor: float = 1.0, **kwargs) -> BenchReport:
    """A synthetic run with batch ~4x reference, batch slowed by
    ``batch_factor``."""
    return _report(
        _samples(4e6, seed),
        _samples(1e6 * batch_factor, seed + 1000),
        **kwargs,
    )


def test_identical_reports_pass():
    baseline = _run(1)
    comparison = compare_reports(baseline, baseline)
    assert not comparison.regressed
    assert comparison.slowdowns == {"reference": 1.0, "batch": 1.0}
    assert comparison.ceiling >= comparison.floor


def test_clean_rerun_passes():
    baseline = _run(1)
    for seed in (2, 3, 4):
        assert not compare_reports(baseline, _run(seed)).regressed


def test_planted_2x_batch_slowdown_is_flagged():
    baseline = _run(1)
    for seed in (2, 3, 4):
        comparison = compare_reports(baseline, _run(seed, batch_factor=2.0))
        assert comparison.speedup_regressed
        assert comparison.slowed_variants == []  # 2x is inside the backstop
        assert "REGRESSED" in comparison.render()


def test_regression_detected_per_variant():
    """A slowdown of both kernels keeps the ratio; the absolute
    backstop still flags each variant past MEDIAN_LIMIT."""
    baseline = _run(1)
    slower = _report(
        [int(s * 3.5) for s in _samples(4e6, 1)],
        [int(s * 3.5) for s in _samples(1e6, 1001)],
    )
    comparison = compare_reports(baseline, slower)
    assert not comparison.speedup_regressed
    assert comparison.slowed_variants == ["reference", "batch"]
    assert comparison.regressed
    assert "s/batch median: 3.50x baseline" in comparison.render()


def test_speedup_never_fails():
    baseline = _run(1)
    faster = _report(_samples(4e5, 2), _samples(5e4, 1002))  # 10x, 20x
    assert not compare_reports(baseline, faster).regressed


def test_threshold_boundary():
    """The limits are inclusive: p90 equal to the baseline's p10 and a
    median at exactly MEDIAN_LIMIT times its baseline both pass."""
    baseline = _report([400] * 10, [100] * 10)
    assert not compare_reports(baseline, baseline).regressed
    below = compare_reports(baseline, _report([399] * 10, [100] * 10))
    assert below.ceiling < below.floor == 4.0
    assert below.speedup_regressed
    backstop = _report(
        [int(400 * MEDIAN_LIMIT)] * 10, [int(100 * MEDIAN_LIMIT)] * 10
    )
    assert not compare_reports(baseline, backstop).regressed
    beyond = _report(
        [int(400 * MEDIAN_LIMIT) + 4] * 10, [int(100 * MEDIAN_LIMIT) + 1] * 10
    )
    assert compare_reports(baseline, beyond).slowed_variants == [
        "reference", "batch"
    ]


def test_scenario_mismatch_rejected():
    with pytest.raises(ValueError, match="scenario mismatch"):
        compare_reports(_run(1, scenario="a"), _run(1, scenario="b"))


def test_python_minor_mismatch_rejected():
    baseline = _run(1, python="3.11.7")
    assert not compare_reports(baseline, _run(2, python="3.11.9")).regressed
    with pytest.raises(ValueError, match="3.11.7.*3.12.1"):
        compare_reports(baseline, _run(2, python="3.12.1"))


def test_dropped_variant_rejected():
    data = _run(1).to_dict()
    del data["variants"]["batch"]
    with pytest.raises(ValueError, match="variants must be reference and batch"):
        BenchReport.from_dict(data)


def test_v1_report_rejected():
    data = _run(1).to_dict()
    data["schema_version"] = 1
    with pytest.raises(ValueError, match="schema_version 1 is not 2"):
        BenchReport.from_dict(data)
