"""Measurement harness: timed repeats, percentiles, canonical reports.

This is the single measurement path for all repo benchmarking: the
``repro bench`` CLI, the ``make bench`` target, and the pytest-benchmark
suite under ``benchmarks/`` all time workloads through
:func:`timed_call` / :func:`measure`, so numbers from any of them are
comparable.

A benchmark run produces a :class:`BenchReport` — one scenario, one
:class:`VariantResult` per simulation kernel — serialized to a canonical
``BENCH_<scenario>.json`` file (schema documented in
``docs/BENCHMARKS.md`` and enforced by :func:`validate_report`).
Reports are diffable across commits with
:func:`repro.bench.compare.compare_reports`.

Methodology:

* ``warmup`` untimed calls absorb import costs, allocator warm-up and
  branch-predictor training, then ``repeats`` timed calls sample the
  steady state with :func:`time.perf_counter_ns`.
* The headline statistic is the **median** (robust against scheduler
  noise); p10/p90 bound the spread; the raw samples are kept in the
  report so later analysis can recompute anything.
* ``events_per_sec`` divides the scenario's nominal workload size (for
  merge scenarios: blocks merged across all trials) by the median.
* ``peak_rss_kb`` is the process-lifetime peak resident set after the
  measurement (``ru_maxrss``) — an upper bound on the workload's
  footprint, comparable between runs of the same scenario list.
"""

from __future__ import annotations

import dataclasses
import json
import platform
import resource
import sys
import time
from pathlib import Path
from typing import Any, Callable, Optional

#: Bump whenever the BENCH_*.json layout changes incompatibly.
BENCH_SCHEMA_VERSION = 1


def timed_call(fn: Callable[[], Any]) -> tuple[Any, int]:
    """Run ``fn`` once under the canonical timer.

    Returns ``(result, elapsed_ns)``.  Every benchmark measurement in
    the repository goes through here.
    """
    start = time.perf_counter_ns()
    result = fn()
    return result, time.perf_counter_ns() - start


def percentile(samples: list[int], fraction: float) -> float:
    """Linear-interpolated percentile of ``samples`` (0 <= fraction <= 1)."""
    if not samples:
        raise ValueError("percentile of an empty sample set")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be within [0, 1], got {fraction}")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return float(ordered[0])
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    weight = position - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


def peak_rss_kb() -> int:
    """Process-lifetime peak resident set size in KiB (Linux units)."""
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def provenance() -> dict:
    """Where the numbers came from: interpreter, platform, wall clock."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "argv": list(sys.argv),
        "unix_time": time.time(),
    }


@dataclasses.dataclass
class Measurement:
    """Raw timing samples of one workload variant."""

    samples_ns: list[int]
    warmup: int

    @property
    def median_ns(self) -> float:
        return percentile(self.samples_ns, 0.5)

    @property
    def p10_ns(self) -> float:
        return percentile(self.samples_ns, 0.1)

    @property
    def p90_ns(self) -> float:
        return percentile(self.samples_ns, 0.9)


def measure(fn: Callable[[], Any], repeats: int = 5, warmup: int = 1) -> Measurement:
    """Warm up, then time ``repeats`` calls of ``fn``."""
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if warmup < 0:
        raise ValueError("warmup must be >= 0")
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(repeats):
        _, elapsed_ns = timed_call(fn)
        samples.append(elapsed_ns)
    return Measurement(samples_ns=samples, warmup=warmup)


@dataclasses.dataclass
class VariantResult:
    """One kernel's measurement within a scenario."""

    kernel: str
    repeats: int
    warmup: int
    median_ns: float
    p10_ns: float
    p90_ns: float
    samples_ns: list[int]
    events_per_sec: float
    peak_rss_kb: int

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "VariantResult":
        return cls(**data)


@dataclasses.dataclass
class BenchReport:
    """Canonical result of benchmarking one scenario."""

    scenario: str
    description: str
    workload_events: int
    variants: dict[str, VariantResult]
    speedup: Optional[float]
    provenance: dict
    schema_version: int = BENCH_SCHEMA_VERSION

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "scenario": self.scenario,
            "description": self.description,
            "workload_events": self.workload_events,
            "variants": {
                name: variant.to_dict()
                for name, variant in sorted(self.variants.items())
            },
            "speedup": self.speedup,
            "provenance": self.provenance,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BenchReport":
        errors = validate_report(data)
        if errors:
            raise ValueError(
                "invalid bench report: " + "; ".join(errors)
            )
        return cls(
            schema_version=data["schema_version"],
            scenario=data["scenario"],
            description=data["description"],
            workload_events=data["workload_events"],
            variants={
                name: VariantResult.from_dict(variant)
                for name, variant in data["variants"].items()
            },
            speedup=data["speedup"],
            provenance=data["provenance"],
        )

    def write(self, path: str | Path) -> Path:
        """Serialize to ``path`` (canonical indented JSON, sorted keys)."""
        path = Path(path)
        path.write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        return path

    @classmethod
    def load(cls, path: str | Path) -> "BenchReport":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def render(self) -> str:
        """Human-readable one-scenario summary."""
        lines = [
            f"scenario {self.scenario}: {self.description}",
            f"  workload: {self.workload_events} events",
        ]
        for name in sorted(self.variants):
            variant = self.variants[name]
            lines.append(
                f"  {name:10s} median {variant.median_ns / 1e6:9.2f} ms  "
                f"[p10 {variant.p10_ns / 1e6:.2f}, p90 {variant.p90_ns / 1e6:.2f}]  "
                f"{variant.events_per_sec:10.0f} events/s  "
                f"rss {variant.peak_rss_kb} KiB"
            )
        if self.speedup is not None:
            lines.append(f"  speedup   batch is {self.speedup:.2f}x reference")
        return "\n".join(lines)


#: Field -> required type for the report top level; the contract
#: docs/BENCHMARKS.md documents and CI relies on.
_REPORT_FIELDS: dict[str, type | tuple[type, ...]] = {
    "schema_version": int,
    "scenario": str,
    "description": str,
    "workload_events": int,
    "variants": dict,
    "speedup": (int, float, type(None)),
    "provenance": dict,
}

_VARIANT_FIELDS: dict[str, type | tuple[type, ...]] = {
    "kernel": str,
    "repeats": int,
    "warmup": int,
    "median_ns": (int, float),
    "p10_ns": (int, float),
    "p90_ns": (int, float),
    "samples_ns": list,
    "events_per_sec": (int, float),
    "peak_rss_kb": int,
}


def validate_report(data: Any) -> list[str]:
    """Schema-check a decoded BENCH_*.json payload; returns error strings."""
    errors: list[str] = []
    if not isinstance(data, dict):
        return [f"report must be a JSON object, got {type(data).__name__}"]
    for field, expected in _REPORT_FIELDS.items():
        if field not in data:
            errors.append(f"missing field {field!r}")
        elif not isinstance(data[field], expected):
            errors.append(
                f"field {field!r} has type {type(data[field]).__name__}"
            )
    if errors:
        return errors
    if data["schema_version"] != BENCH_SCHEMA_VERSION:
        errors.append(
            f"schema_version {data['schema_version']} != {BENCH_SCHEMA_VERSION}"
        )
    if not data["variants"]:
        errors.append("no variants recorded")
    for name, variant in data["variants"].items():
        if not isinstance(variant, dict):
            errors.append(f"variant {name!r} is not an object")
            continue
        for field, expected in _VARIANT_FIELDS.items():
            if field not in variant:
                errors.append(f"variant {name!r} missing field {field!r}")
            elif not isinstance(variant[field], expected):
                errors.append(
                    f"variant {name!r} field {field!r} has type "
                    f"{type(variant[field]).__name__}"
                )
        if variant.get("kernel") != name:
            errors.append(f"variant {name!r} kernel field mismatch")
        samples = variant.get("samples_ns")
        if isinstance(samples, list) and not all(
            isinstance(sample, int) and sample >= 0 for sample in samples
        ):
            errors.append(f"variant {name!r} has non-integer samples")
    return errors


def bench_filename(scenario_name: str) -> str:
    """Canonical report filename for a scenario."""
    return f"BENCH_{scenario_name}.json"


def run_scenario(
    scenario,
    repeats: Optional[int] = None,
    warmup: Optional[int] = None,
) -> BenchReport:
    """Benchmark every kernel variant of one scenario.

    ``scenario`` is a :class:`repro.bench.scenarios.BenchScenario`;
    ``repeats`` / ``warmup`` override the scenario defaults.
    """
    repeats = scenario.repeats if repeats is None else repeats
    warmup = scenario.warmup if warmup is None else warmup
    variants: dict[str, VariantResult] = {}
    for kernel in scenario.kernels:
        workload = scenario.build(kernel)
        measurement = measure(workload, repeats=repeats, warmup=warmup)
        median_s = measurement.median_ns / 1e9
        variants[kernel] = VariantResult(
            kernel=kernel,
            repeats=repeats,
            warmup=warmup,
            median_ns=measurement.median_ns,
            p10_ns=measurement.p10_ns,
            p90_ns=measurement.p90_ns,
            samples_ns=measurement.samples_ns,
            events_per_sec=scenario.workload_events / median_s,
            peak_rss_kb=peak_rss_kb(),
        )
    speedup = None
    if "reference" in variants and "batch" in variants:
        speedup = variants["reference"].median_ns / variants["batch"].median_ns
    return BenchReport(
        scenario=scenario.name,
        description=scenario.description,
        workload_events=scenario.workload_events,
        variants=variants,
        speedup=speedup,
        provenance=provenance(),
    )
