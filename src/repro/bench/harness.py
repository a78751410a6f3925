"""Measurement harness: paired kernel timings and canonical reports.

``repro.bench`` answers one question: is the ``batch`` interpreter
still faster than the ``reference`` event loop by the recorded margin?
End-to-end wall time of figures, campaigns and services is measured by
the repository benchmark under ``benchmark/``, not here.

A benchmark run produces a :class:`BenchReport` — one scenario, one
:class:`VariantResult` per kernel — serialized to a canonical
``BENCH_<scenario>.json`` file (schema documented in
``docs/BENCHMARKS.md`` and enforced by :func:`validate_report`).
Reports are compared with :func:`repro.bench.compare.compare_reports`.

Methodology:

* :func:`measure` runs ``warmup`` untimed calls of each kernel, then
  ``repeats`` rounds that time one call of each kernel with
  :func:`time.perf_counter_ns`, alternating which kernel goes first.
  ``samples_ns[i]`` of ``reference`` and of ``batch`` were taken back
  to back, so their quotient — the i-th *paired ratio* — cancels most
  of the host drift that would swamp a comparison of absolute times.
* ``speedup`` is the median paired ratio; the per-variant median, p10
  and p90 bound the absolute spread, and the raw samples are kept so
  later analysis can recompute anything.
* ``events_per_sec`` divides the scenario's nominal workload size
  (blocks merged across all trials) by the variant's median.
* ``peak_rss_kb`` is the process-lifetime peak resident set after the
  measurement (``ru_maxrss``) — an upper bound on the footprint.
"""

from __future__ import annotations

import dataclasses
import json
import platform
import resource
import sys
import time
from pathlib import Path
from typing import Any, Callable, Mapping, Optional

#: Bump whenever the BENCH_*.json layout changes incompatibly.
BENCH_SCHEMA_VERSION = 2

#: The two variants of every report: the oracle and the execution path.
KERNELS = ("reference", "batch")

#: Default timed rounds (pairs) and untimed warmup calls per kernel.
REPEATS = 10
WARMUP = 1


def timed_call(fn: Callable[[], Any]) -> tuple[Any, int]:
    """Run ``fn`` once under the canonical timer.

    Returns ``(result, elapsed_ns)``.  Every benchmark measurement in
    the repository goes through here.
    """
    start = time.perf_counter_ns()
    result = fn()
    return result, time.perf_counter_ns() - start


def percentile(samples: list[float], fraction: float) -> float:
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


def measure(
    workloads: Mapping[str, Callable[[], Any]],
    repeats: int = REPEATS,
    warmup: int = WARMUP,
) -> dict[str, list[int]]:
    """Interleaved timings of several workloads, keyed like ``workloads``.

    Each of the ``repeats`` rounds times one call of every workload;
    odd rounds run them in reverse order so no workload always pays
    (or profits from) going first.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if warmup < 0:
        raise ValueError("warmup must be >= 0")
    order = list(workloads)
    for _ in range(warmup):
        for name in order:
            workloads[name]()
    samples: dict[str, list[int]] = {name: [] for name in order}
    for round_index in range(repeats):
        for name in order if round_index % 2 == 0 else reversed(order):
            _, elapsed_ns = timed_call(workloads[name])
            samples[name].append(elapsed_ns)
    return samples


@dataclasses.dataclass
class VariantResult:
    """One kernel's samples within a scenario."""

    kernel: str
    median_ns: float
    p10_ns: float
    p90_ns: float
    samples_ns: list[int]
    events_per_sec: float

    @classmethod
    def from_samples(
        cls, kernel: str, samples_ns: list[int], workload_events: int
    ) -> "VariantResult":
        median_ns = percentile(samples_ns, 0.5)
        return cls(
            kernel=kernel,
            median_ns=median_ns,
            p10_ns=percentile(samples_ns, 0.1),
            p90_ns=percentile(samples_ns, 0.9),
            samples_ns=samples_ns,
            events_per_sec=workload_events / (median_ns / 1e9),
        )

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
    repeats: int
    warmup: int
    variants: dict[str, VariantResult]
    peak_rss_kb: int
    provenance: dict
    schema_version: int = BENCH_SCHEMA_VERSION

    @property
    def ratios(self) -> list[float]:
        """The paired ``reference / batch`` ratios, one per round."""
        return [
            reference / batch
            for reference, batch in zip(
                self.variants["reference"].samples_ns,
                self.variants["batch"].samples_ns,
            )
        ]

    @property
    def speedup(self) -> float:
        """Median paired ratio: how many times faster batch ran."""
        return percentile(self.ratios, 0.5)

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "scenario": self.scenario,
            "description": self.description,
            "workload_events": self.workload_events,
            "repeats": self.repeats,
            "warmup": self.warmup,
            "variants": {
                name: variant.to_dict()
                for name, variant in sorted(self.variants.items())
            },
            "speedup": self.speedup,
            "peak_rss_kb": self.peak_rss_kb,
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
            repeats=data["repeats"],
            warmup=data["warmup"],
            variants={
                name: VariantResult.from_dict(variant)
                for name, variant in data["variants"].items()
            },
            peak_rss_kb=data["peak_rss_kb"],
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
            f"  workload: {self.workload_events} events, "
            f"{self.repeats} paired rounds, rss {self.peak_rss_kb} KiB",
        ]
        for name in KERNELS:
            variant = self.variants[name]
            lines.append(
                f"  {name:10s} median {variant.median_ns / 1e6:9.2f} ms  "
                f"[p10 {variant.p10_ns / 1e6:.2f}, p90 {variant.p90_ns / 1e6:.2f}]  "
                f"{variant.events_per_sec:10.0f} events/s"
            )
        lines.append(
            f"  speedup   batch is {self.speedup:.2f}x reference "
            f"[p10 {percentile(self.ratios, 0.1):.2f}, "
            f"p90 {percentile(self.ratios, 0.9):.2f}]"
        )
        return "\n".join(lines)


#: Field -> required type for the report top level; the contract
#: docs/BENCHMARKS.md documents and CI relies on.
_REPORT_FIELDS: dict[str, type | tuple[type, ...]] = {
    "schema_version": int,
    "scenario": str,
    "description": str,
    "workload_events": int,
    "repeats": int,
    "warmup": int,
    "variants": dict,
    "speedup": (int, float),
    "peak_rss_kb": int,
    "provenance": dict,
}

_VARIANT_FIELDS: dict[str, type | tuple[type, ...]] = {
    "kernel": str,
    "median_ns": (int, float),
    "p10_ns": (int, float),
    "p90_ns": (int, float),
    "samples_ns": list,
    "events_per_sec": (int, float),
}


def validate_report(data: Any) -> list[str]:
    """Schema-check a decoded BENCH_*.json payload; returns error strings."""
    if not isinstance(data, dict):
        return [f"report must be a JSON object, got {type(data).__name__}"]
    if data.get("schema_version") != BENCH_SCHEMA_VERSION:
        return [
            f"schema_version {data.get('schema_version')!r} is not "
            f"{BENCH_SCHEMA_VERSION}; re-record the report with "
            "`repro bench run`"
        ]
    errors: list[str] = []
    for field, expected in _REPORT_FIELDS.items():
        if field not in data:
            errors.append(f"missing field {field!r}")
        elif not isinstance(data[field], expected):
            errors.append(
                f"field {field!r} has type {type(data[field]).__name__}"
            )
    if errors:
        return errors
    if not isinstance(data["provenance"].get("python"), str):
        errors.append("provenance lacks the 'python' version")
    if sorted(data["variants"]) != sorted(KERNELS):
        return errors + [
            f"variants must be {' and '.join(KERNELS)}, got "
            f"{', '.join(sorted(data['variants'])) or 'none'}"
        ]
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
        if isinstance(samples, list):
            if not all(
                isinstance(sample, int) and sample > 0 for sample in samples
            ):
                errors.append(f"variant {name!r} has non-positive samples")
            if len(samples) != data["repeats"] or not samples:
                errors.append(
                    f"variant {name!r} has {len(samples)} samples, "
                    f"expected repeats={data['repeats']} (at least 1)"
                )
    return errors


def bench_filename(scenario_name: str) -> str:
    """Canonical report filename for a scenario."""
    return f"BENCH_{scenario_name}.json"


def run_scenario(
    scenario,
    repeats: Optional[int] = None,
    warmup: Optional[int] = None,
) -> BenchReport:
    """Benchmark one scenario on both kernels, in interleaved pairs.

    ``scenario`` is a :class:`repro.bench.scenarios.BenchScenario`;
    ``repeats`` / ``warmup`` default to :data:`REPEATS` / :data:`WARMUP`.
    """
    repeats = REPEATS if repeats is None else repeats
    warmup = WARMUP if warmup is None else warmup
    samples = measure(
        {kernel: scenario.build(kernel) for kernel in KERNELS},
        repeats=repeats,
        warmup=warmup,
    )
    return BenchReport(
        scenario=scenario.name,
        description=scenario.description,
        workload_events=scenario.workload_events,
        repeats=repeats,
        warmup=warmup,
        variants={
            kernel: VariantResult.from_samples(
                kernel, samples[kernel], scenario.workload_events
            )
            for kernel in KERNELS
        },
        peak_rss_kb=peak_rss_kb(),
        provenance=provenance(),
    )
