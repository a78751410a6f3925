"""repro.bench: the kernel speedup baselines.

Four pinned scenarios (:mod:`repro.bench.scenarios`) each time the
``reference`` and ``batch`` kernels in interleaved pairs
(:mod:`repro.bench.harness`) and serialize to ``BENCH_<scenario>.json``
files that the comparator (:mod:`repro.bench.compare`) gates on the
paired speedup.  CLI: ``repro bench run | compare | list``; see
docs/BENCHMARKS.md.  End-to-end wall time is the repository benchmark's
job (``benchmark/``).
"""

from repro.bench.compare import MEDIAN_LIMIT, Comparison, compare_reports
from repro.bench.harness import (
    BENCH_SCHEMA_VERSION,
    KERNELS,
    REPEATS,
    WARMUP,
    BenchReport,
    VariantResult,
    bench_filename,
    measure,
    peak_rss_kb,
    percentile,
    provenance,
    run_scenario,
    timed_call,
    validate_report,
)
from repro.bench.scenarios import (
    SCENARIOS,
    BenchScenario,
    get_scenario,
    scenario_config,
    scenario_names,
)

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BenchReport",
    "BenchScenario",
    "Comparison",
    "KERNELS",
    "MEDIAN_LIMIT",
    "REPEATS",
    "SCENARIOS",
    "VariantResult",
    "WARMUP",
    "bench_filename",
    "compare_reports",
    "get_scenario",
    "measure",
    "peak_rss_kb",
    "percentile",
    "provenance",
    "run_scenario",
    "scenario_config",
    "scenario_names",
    "timed_call",
    "validate_report",
]
