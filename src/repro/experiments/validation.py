"""Automated reproduction verdicts.

EXPERIMENTS.md narrates paper-vs-measured; this module *checks* it.
:data:`PAPER_EXPECTATIONS` is the machine-readable list of every value
the paper prints, each tied to a simulation configuration and a
tolerance; :func:`validate` runs them and returns verdicts.  The CLI
exposes this as ``python -m repro validate`` (full scale, ~7 s)
so the headline claim of this repository is one command to audit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.core.metrics import AggregateMetrics
from repro.core.parameters import PrefetchStrategy, SimulationConfig
from repro.core.simulator import MergeSimulation


@dataclass(frozen=True)
class Expectation:
    """One paper value and how to measure it."""

    label: str
    paper_value: float
    tolerance: float  # relative
    config: SimulationConfig
    metric: Callable[[AggregateMetrics], float]
    source: str


@dataclass(frozen=True)
class Verdict:
    label: str
    paper_value: float
    measured: float
    relative_error: float
    ok: bool
    source: str


def _time(result: AggregateMetrics) -> float:
    return result.total_time_s.mean


def _concurrency(result: AggregateMetrics) -> float:
    return result.average_concurrency.mean


def _config(**kwargs) -> SimulationConfig:
    defaults = dict(trials=3, base_seed=1992)
    defaults.update(kwargs)
    return SimulationConfig(**defaults)


#: Every simulation-checkable number printed in the paper's prose.
PAPER_EXPECTATIONS: tuple[Expectation, ...] = (
    Expectation(
        "no prefetch, k=25, 1 disk", 357.2, 0.02,
        _config(num_runs=25, num_disks=1), _time, "section 3.1",
    ),
    Expectation(
        "no prefetch, k=50, 1 disk", 909.7, 0.02,
        _config(num_runs=50, num_disks=1), _time, "section 3.1",
    ),
    Expectation(
        "intra-run N=10, k=25, 1 disk", 81.8, 0.02,
        _config(num_runs=25, num_disks=1,
                strategy=PrefetchStrategy.INTRA_RUN, prefetch_depth=10),
        _time, "section 3.1",
    ),
    Expectation(
        "intra-run N=10, k=50, 1 disk", 183.2, 0.02,
        _config(num_runs=50, num_disks=1,
                strategy=PrefetchStrategy.INTRA_RUN, prefetch_depth=10),
        _time, "section 3.1",
    ),
    Expectation(
        "no prefetch, k=25, 5 disks", 279.0, 0.02,
        _config(num_runs=25, num_disks=5), _time, "section 3.2",
    ),
    Expectation(
        "no prefetch, k=50, 10 disks", 558.1, 0.02,
        _config(num_runs=50, num_disks=10), _time, "section 3.2",
    ),
    Expectation(
        "unsync intra-run N=30, k=25, 5 disks (paper sim 24.8s)", 24.8, 0.05,
        _config(num_runs=25, num_disks=5,
                strategy=PrefetchStrategy.INTRA_RUN, prefetch_depth=30),
        _time, "section 3.2",
    ),
    Expectation(
        "sync inter-run N=10, k=25, 5 disks", 17.6, 0.03,
        _config(num_runs=25, num_disks=5,
                strategy=PrefetchStrategy.INTER_RUN, prefetch_depth=10,
                cache_capacity=1200, synchronized=True),
        _time, "section 3.2",
    ),
    Expectation(
        "unsync inter-run N=50, k=25, 5 disks (paper sim 12.2s)", 12.2, 0.15,
        _config(num_runs=25, num_disks=5,
                strategy=PrefetchStrategy.INTER_RUN, prefetch_depth=50,
                cache_capacity=5000),
        _time, "section 3.2 (large-N tail; paper's cache unstated)",
    ),
    Expectation(
        "urn-game concurrency, D=5 (intra-run N=30)", 2.51, 0.12,
        _config(num_runs=25, num_disks=5,
                strategy=PrefetchStrategy.INTRA_RUN, prefetch_depth=30),
        _concurrency, "section 3.2 (asymptotic; N=30 is pre-asymptotic)",
    ),
)


def validate(
    expectations: Sequence[Expectation] = PAPER_EXPECTATIONS,
    blocks_per_run: Optional[int] = None,
) -> list[Verdict]:
    """Measure every expectation; ``blocks_per_run`` of None = paper scale.

    Reduced scales are useful for smoke tests but only paper scale
    (1000) is comparable to the paper's printed values.
    """
    verdicts = []
    for expectation in expectations:
        config = expectation.config
        if blocks_per_run is not None:
            config = SimulationConfig(
                **{**config.__dict__, "blocks_per_run": blocks_per_run}
            )
        measured = expectation.metric(MergeSimulation(config).run())
        relative = abs(measured - expectation.paper_value) / expectation.paper_value
        verdicts.append(
            Verdict(
                label=expectation.label,
                paper_value=expectation.paper_value,
                measured=measured,
                relative_error=relative,
                ok=relative <= expectation.tolerance,
                source=expectation.source,
            )
        )
    return verdicts


def render_verdicts(verdicts: Sequence[Verdict]) -> str:
    lines = []
    for verdict in verdicts:
        status = "ok " if verdict.ok else "FAIL"
        lines.append(
            f"[{status}] {verdict.label:55s} paper {verdict.paper_value:7.2f}"
            f"  measured {verdict.measured:7.2f}  ({verdict.relative_error:+.1%})"
        )
    passed = sum(1 for verdict in verdicts if verdict.ok)
    lines.append(f"\n{passed}/{len(verdicts)} paper values reproduced")
    return "\n".join(lines)
