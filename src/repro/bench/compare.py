"""Regression detection between two BENCH_*.json reports.

The gate is the paired speedup.  Each report carries ``repeats`` paired
``reference / batch`` ratios (see :mod:`repro.bench.harness`); the
current report regresses when the p90 of its ratios falls below the
p10 of the baseline's — when even its best rounds are slower, relative
to the oracle, than the baseline's worst.  The limit comes from the
measured spread, so a noisy scenario gets a wide band and a quiet one a
narrow band, without a threshold option.

A ratio says nothing about the reference kernel slowing down together
with batch, so each variant's median also has an absolute backstop:
more than :data:`MEDIAN_LIMIT` times its baseline fails.

Ratios move with the interpreter (``batch`` and ``reference`` gain
differently from each CPython release), so reports recorded on
different Python minor versions are refused rather than compared.
"""

from __future__ import annotations

import dataclasses

from repro.bench.harness import KERNELS, BenchReport, percentile

#: Absolute backstop: a variant whose median exceeds this multiple of
#: its baseline median regresses whatever the paired speedup says.
MEDIAN_LIMIT = 3.0


def _python_minor(report: BenchReport) -> str:
    return ".".join(report.provenance["python"].split(".")[:2])


@dataclasses.dataclass(frozen=True)
class Comparison:
    """Baseline-vs-current verdict for one scenario."""

    scenario: str
    baseline_ratios: list[float]
    current_ratios: list[float]
    #: kernel -> current median / baseline median.
    slowdowns: dict[str, float]

    @property
    def floor(self) -> float:
        """p10 of the baseline's paired ratios: the limit."""
        return percentile(self.baseline_ratios, 0.1)

    @property
    def ceiling(self) -> float:
        """p90 of the current paired ratios: what is held to the limit."""
        return percentile(self.current_ratios, 0.9)

    @property
    def speedup_regressed(self) -> bool:
        return self.ceiling < self.floor

    @property
    def slowed_variants(self) -> list[str]:
        return [k for k in KERNELS if self.slowdowns[k] > MEDIAN_LIMIT]

    @property
    def regressed(self) -> bool:
        return self.speedup_regressed or bool(self.slowed_variants)

    def render(self) -> str:
        verdict = "REGRESSED" if self.speedup_regressed else "ok"
        lines = [
            f"[{verdict:9s}] {self.scenario} speedup: p90 "
            f"{self.ceiling:.2f}x (median "
            f"{percentile(self.current_ratios, 0.5):.2f}x) vs baseline p10 "
            f"{self.floor:.2f}x (median "
            f"{percentile(self.baseline_ratios, 0.5):.2f}x)"
        ]
        for kernel in KERNELS:
            slowdown = self.slowdowns[kernel]
            verdict = "REGRESSED" if slowdown > MEDIAN_LIMIT else "ok"
            lines.append(
                f"[{verdict:9s}] {self.scenario}/{kernel} median: "
                f"{slowdown:.2f}x baseline (limit {MEDIAN_LIMIT:.1f}x)"
            )
        return "\n".join(lines)


def compare_reports(baseline: BenchReport, current: BenchReport) -> Comparison:
    """Compare ``current`` to ``baseline``; raises on mismatched reports.

    Both reports must describe the same scenario and come from the same
    Python minor version.
    """
    if baseline.scenario != current.scenario:
        raise ValueError(
            f"scenario mismatch: baseline {baseline.scenario!r} vs "
            f"current {current.scenario!r}"
        )
    if _python_minor(baseline) != _python_minor(current):
        raise ValueError(
            f"python mismatch: baseline recorded on "
            f"{baseline.provenance['python']}, current on "
            f"{current.provenance['python']}; the batch/reference ratio "
            "differs between interpreters, so re-run on the baseline's "
            "Python version"
        )
    return Comparison(
        scenario=baseline.scenario,
        baseline_ratios=baseline.ratios,
        current_ratios=current.ratios,
        slowdowns={
            kernel: current.variants[kernel].median_ns
            / baseline.variants[kernel].median_ns
            for kernel in KERNELS
        },
    )
