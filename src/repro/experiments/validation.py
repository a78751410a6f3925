"""Automated reproduction verdicts, in tiers from cheapest to fullest.

EXPERIMENTS.md narrates paper-vs-measured; this module *checks* it
against the values of :data:`repro.analysis.paper.PRINTED`.
:func:`check_closed_forms` (``repro paper-check``) evaluates the closed
forms; :func:`check_reduced_scale` (``repro selfcheck``) simulates short
merges against their estimates; :func:`validate` simulates every
printed value at paper scale.  All three return :class:`Verdict` lists
for :func:`render_verdicts`.  ``repro validate`` adds
:func:`judge_claims` over :data:`FIGURE_CLAIMS`, the paper's figure and
ablation findings -- orderings, monotone curves, ratio bands, the urn
and transfer bounds -- each a check over one experiment's tables.  At
full scale (~6 min) it makes the headline claims of this repository
one command to audit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Optional, Sequence

from repro.analysis import interrun, iotime, urn_game
from repro.analysis.calibration import M
from repro.analysis.paper import PRINTED, printed
from repro.analysis.predictions import predict
from repro.core.metrics import AggregateMetrics
from repro.core.parameters import PAPER_DISK, PrefetchStrategy, SimulationConfig
from repro.core.simulator import MergeSimulation
from repro.experiments.config import ExperimentResult, Scale, get_experiment
from repro.experiments.memo import trial_memo


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
    """One value of a tier against the value it should have."""

    label: str
    expected: float
    measured: float
    relative_error: float
    ok: bool
    source: str


def _verdict(label: str, expected: float, measured: float, tolerance: float,
             source: str) -> Verdict:
    relative = abs(measured - expected) / expected
    return Verdict(label, expected, measured, relative, relative <= tolerance,
                   source)


#: ``repro paper-check``: each closed form against the printed value
#: under the same key of :data:`~repro.analysis.paper.PRINTED`.
CLOSED_FORMS: tuple[tuple[str, Callable[[], float]], ...] = (
    ("no prefetch k=25 D=1", lambda: iotime.total_time_s(
        iotime.no_prefetch_single_disk_block_ms(25, M, PAPER_DISK), 25)),
    ("no prefetch k=50 D=1", lambda: iotime.total_time_s(
        iotime.no_prefetch_single_disk_block_ms(50, M, PAPER_DISK), 50)),
    ("no prefetch k=25 D=5", lambda: iotime.total_time_s(
        iotime.no_prefetch_multi_disk_block_ms(25, M, 5, PAPER_DISK), 25)),
    ("no prefetch k=50 D=10", lambda: iotime.total_time_s(
        iotime.no_prefetch_multi_disk_block_ms(50, M, 10, PAPER_DISK), 50)),
    ("intra k=25 N=10 D=1", lambda: iotime.total_time_s(
        iotime.intra_run_single_disk_block_ms(25, M, 10, PAPER_DISK), 25)),
    ("intra k=50 N=10 D=1", lambda: iotime.total_time_s(
        iotime.intra_run_single_disk_block_ms(50, M, 10, PAPER_DISK), 50)),
    ("inter sync k=25 D=5 N=10",
     lambda: interrun.inter_run_sync_total_s(25, M, 10, 5, PAPER_DISK)),
    ("bound k=25 D=1", lambda: interrun.lower_bound_total_s(25, 1, PAPER_DISK)),
    ("bound k=50 D=1", lambda: interrun.lower_bound_total_s(50, 1, PAPER_DISK)),
    ("bound k=25 D=5", lambda: interrun.lower_bound_total_s(25, 5, PAPER_DISK)),
    ("urn E(L) D=5", lambda: urn_game.expected_concurrency(5)),
    ("urn E(L) D=10", lambda: urn_game.expected_concurrency(10)),
    ("urn E(L) D=25", lambda: urn_game.expected_concurrency(25)),
)


def check_closed_forms() -> list[Verdict]:
    """The analytic tier: every :data:`CLOSED_FORMS` entry within 1%."""
    verdicts = []
    for key, closed_form in CLOSED_FORMS:
        value, section = PRINTED[key]
        verdicts.append(_verdict(key, value, closed_form(), 0.01, section))
    return verdicts


def _preload_adjusted(estimate: float, config: SimulationConfig) -> float:
    """Scale an estimate to the blocks ``config`` actually fetches.

    The initial load of each run costs no I/O; at reduced run length
    that is a sizable fraction (at full scale the factor is within 3%
    of 1).
    """
    total = config.total_blocks
    preload = config.num_runs * config.initial_blocks_per_run
    return estimate * (total - preload) / total


#: Run length and trial count of the reduced-scale tier.
REDUCED_BLOCKS, REDUCED_TRIALS = 300, 2
_reduced = partial(SimulationConfig, blocks_per_run=REDUCED_BLOCKS,
                   trials=REDUCED_TRIALS)


#: ``repro selfcheck``: (label, configuration, relative tolerance) of
#: short simulations checked against the closed-form estimate.
REDUCED_SCALE_CHECKS: tuple[tuple[str, SimulationConfig, float], ...] = (
    ("no prefetch, 1 disk", _reduced(num_runs=10, num_disks=1), 0.03),
    ("no prefetch, 5 disks", _reduced(num_runs=10, num_disks=5), 0.03),
    ("intra-run N=5, 1 disk",
     _reduced(num_runs=10, num_disks=1, strategy=PrefetchStrategy.INTRA_RUN,
              prefetch_depth=5), 0.05),
    ("intra-run N=5, sync, 5 disks",
     _reduced(num_runs=10, num_disks=5, strategy=PrefetchStrategy.INTRA_RUN,
              prefetch_depth=5, synchronized=True), 0.05),
    ("inter-run N=5, sync, 5 disks",
     _reduced(num_runs=10, num_disks=5, strategy=PrefetchStrategy.INTER_RUN,
              prefetch_depth=5, cache_capacity=400, synchronized=True), 0.08),
)


def check_reduced_scale() -> list[Verdict]:
    """The reduced-scale tier: :data:`REDUCED_SCALE_CHECKS`, simulated."""
    return [
        _verdict(label, _preload_adjusted(predict(config).total_s, config),
                 MergeSimulation(config).run().total_time_s.mean, tolerance,
                 "closed-form estimate")
        for label, config, tolerance in REDUCED_SCALE_CHECKS
    ]


def _time(result: AggregateMetrics) -> float:
    return result.total_time_s.mean


def _expect(label: str, key: str, tolerance: float, metric=_time, note: str = "",
            **config) -> Expectation:
    """The expectation that ``config`` measures printed value ``key``."""
    value, section = PRINTED[key]
    return Expectation(label, value, tolerance,
                       SimulationConfig(trials=3, base_seed=1992, **config),
                       metric, section + note)


#: Every simulation-checkable number printed in the paper's prose.
PAPER_EXPECTATIONS: tuple[Expectation, ...] = (
    _expect("no prefetch, k=25, 1 disk", "no prefetch k=25 D=1", 0.02,
            num_runs=25, num_disks=1),
    _expect("no prefetch, k=50, 1 disk", "no prefetch k=50 D=1", 0.02,
            num_runs=50, num_disks=1),
    _expect("intra-run N=10, k=25, 1 disk", "intra k=25 N=10 D=1", 0.02,
            num_runs=25, num_disks=1, strategy=PrefetchStrategy.INTRA_RUN,
            prefetch_depth=10),
    _expect("intra-run N=10, k=50, 1 disk", "intra k=50 N=10 D=1", 0.02,
            num_runs=50, num_disks=1, strategy=PrefetchStrategy.INTRA_RUN,
            prefetch_depth=10),
    _expect("no prefetch, k=25, 5 disks", "no prefetch k=25 D=5", 0.02,
            num_runs=25, num_disks=5),
    _expect("no prefetch, k=50, 10 disks", "no prefetch k=50 D=10", 0.02,
            num_runs=50, num_disks=10),
    _expect("unsync intra-run N=30, k=25, 5 disks (paper sim 24.8s)",
            "intra unsync sim k=25 D=5 N=30", 0.05,
            num_runs=25, num_disks=5, strategy=PrefetchStrategy.INTRA_RUN,
            prefetch_depth=30),
    _expect("sync inter-run N=10, k=25, 5 disks", "inter sync k=25 D=5 N=10",
            0.03, num_runs=25, num_disks=5, strategy=PrefetchStrategy.INTER_RUN,
            prefetch_depth=10, cache_capacity=1200, synchronized=True),
    _expect("unsync inter-run N=50, k=25, 5 disks (paper sim 12.2s)",
            "inter unsync sim k=25 D=5 N=50", 0.15,
            note=" (large-N tail; paper's cache unstated)",
            num_runs=25, num_disks=5, strategy=PrefetchStrategy.INTER_RUN,
            prefetch_depth=50, cache_capacity=5000),
    _expect("urn-game concurrency, D=5 (intra-run N=30)", "urn E(L) D=5", 0.12,
            metric=lambda result: result.average_concurrency.mean,
            note=" (asymptotic; N=30 is pre-asymptotic)",
            num_runs=25, num_disks=5, strategy=PrefetchStrategy.INTRA_RUN,
            prefetch_depth=30),
)


#: A claim's check: the experiment's result and the scale it ran at.
Check = Callable[[ExperimentResult, Scale], bool]


@dataclass(frozen=True)
class Claim:
    """One figure-level finding, checked against an experiment's tables.

    ``check`` receives the experiment's result and the :class:`Scale`
    it ran at (bounds that depend on the run length read
    ``blocks_per_run`` from it).
    """

    experiment_id: str
    label: str
    check: Check
    source: str


@dataclass(frozen=True)
class ClaimVerdict:
    experiment_id: str
    label: str
    ok: bool
    source: str
    error: Optional[str] = None  # set when the experiment or check raised


def _rows(result: ExperimentResult, table: int = 0) -> list:
    return result.tables[table].rows


def _column(result: ExperimentResult, header: str) -> list:
    table = result.tables[0]
    index = table.headers.index(header)
    return [row[index] for row in table.rows]


def _series(result: ExperimentResult, header: str) -> list:
    """One column's values, skipping infeasible (``-``) cells."""
    return [value for value in _column(result, header) if value != "-"]


def _named(result: ExperimentResult) -> dict:
    """Row label -> first value column."""
    return {row[0]: row[1] for row in _rows(result)}


def _close(actual: float, expected: float, rel: float = 0.0,
           abs_: float = 1e-12) -> bool:
    """``actual`` within ``max(rel * |expected|, abs_)`` of ``expected``."""
    return abs(actual - expected) <= max(rel * abs(expected), abs_)


def _every(predicate: Callable[[list], bool], table: int = 0) -> Check:
    """Check that ``predicate`` holds on every row of one table."""
    return lambda result, _scale: all(map(predicate, _rows(result, table)))


def _on_row(index: int, predicate: Callable[[list], bool]) -> Check:
    return lambda result, _scale: predicate(_rows(result)[index])


def _ordered(*headers: str) -> Check:
    """Check that the named columns strictly increase along every row."""
    def check(result: ExperimentResult, _scale: Scale) -> bool:
        return all(
            all(a < b for a, b in zip(values, values[1:]))
            for values in zip(*(_column(result, header) for header in headers))
        )

    return check


def _growth(result: ExperimentResult, header: str) -> float:
    column = _column(result, header)
    return column[-1] - column[0]


def _each_depth(prefix: str, predicate: Callable[[list], bool]) -> Check:
    """Check ``predicate`` on the ``<prefix> N=n`` series, N = 1, 5, 10."""
    return lambda result, _scale: all(
        predicate(_series(result, f"{prefix} N={n}")) for n in (1, 5, 10)
    )


def _cache_sweep_claims(experiment_id: str, source: str) -> tuple[Claim, ...]:
    return (
        Claim(experiment_id, "a feasible cache size for each of N=1, 5, 10",
              _each_depth("time", bool), source),
        Claim(experiment_id, "success ratio ends > 0.9 and > its start - 0.05, "
              "N=1, 5, 10",
              _each_depth("sr", lambda sr: sr[-1] > sr[0] - 0.05 and sr[-1] > 0.9),
              source),
        Claim(experiment_id, "time at the largest cache < 1.02x the smallest, "
              "N=1, 5, 10",
              _each_depth("time", lambda times: times[-1] < times[0] * 1.02),
              source),
        Claim(experiment_id, "N=10 beats N=1 at the largest cache",
              lambda result, _scale: _series(result, "time N=10")[-1]
              < _series(result, "time N=1")[-1], source),
    )


def _label_value(label: str, position: int) -> int:
    """The integer of the ``name=value`` word at ``position`` of a label."""
    return int(label.split()[position].split("=")[1])


def _intra_1d_adjusted(result: ExperimentResult, scale: Scale) -> bool:
    return all(
        _close(simulated, _preload_adjusted(estimate, SimulationConfig(
            num_runs=_label_value(label, 0), num_disks=1,
            strategy=PrefetchStrategy.INTRA_RUN,
            prefetch_depth=_label_value(label, 1),
            blocks_per_run=scale.blocks_per_run,
        )), rel=0.05)
        for label, estimate, simulated, _std, _paper in _rows(result)
    )


def _inter_sync_adjusted(result: ExperimentResult, scale: Scale) -> bool:
    _label, estimate, simulated, _std, _paper = _rows(result)[0]
    config = SimulationConfig(
        num_runs=25, num_disks=5, strategy=PrefetchStrategy.INTER_RUN,
        prefetch_depth=10, cache_capacity=1200, synchronized=True,
        blocks_per_run=scale.blocks_per_run,
    )
    return _close(simulated, _preload_adjusted(estimate, config), rel=0.05)


def _near_transfer_bound(result: ExperimentResult, scale: Scale) -> bool:
    """Each N=50 simulation sits above its transfer bound over the
    blocks actually fetched, and below 1.5x the full bound."""
    for label, simulated, _ratio, _paper in _rows(result, 1):
        k = _label_value(label, 0)
        total_blocks = k * scale.blocks_per_run
        transfer = PAPER_DISK.transfer_ms_per_block
        effective_bound = (total_blocks - k * 50) * transfer / 5 / 1000
        full_bound = total_blocks * transfer / 5 / 1000
        if not effective_bound < simulated < full_bound * 1.5:
            return False
    return True


def _write_bound(result: ExperimentResult, scale: Scale) -> bool:
    """One write disk makes the merge write-bound: roughly k*b*T/1."""
    bound = 25 * scale.blocks_per_run * PAPER_DISK.transfer_ms_per_block / 1000
    return _close(_named(result)["W=1"], bound, rel=0.25)


def _skew(result: ExperimentResult, alpha: float, header: str) -> float:
    """One column's time at depletion skew ``alpha``."""
    return dict(zip(_column(result, "alpha"), _column(result, header)))[alpha]


def _degradation(result: ExperimentResult, header: str) -> float:
    return _skew(result, 2.0, header) / _skew(result, 0.0, header)


def _planned(result: ExperimentResult, index: int) -> list:
    return [row[index] for row in _rows(result) if row[2] != "-"]


def _interior_optimum(result: ExperimentResult, _scale: Scale) -> bool:
    times = _planned(result, 3)
    return times[0] > min(times) and times[-1] > min(times)


_URN_CONCURRENCY = {
    5: printed("urn E(L) D=5"),
    10: printed("urn E(L) D=10"),
    25: printed("urn E(L) D=25 exact"),
}


#: The paper's figure and ablation findings.  Every claim holds at
#: ``Scale.quick()`` (checked by the test suite) and at full scale.
FIGURE_CLAIMS: tuple[Claim, ...] = (
    Claim("fig-3.2a", "inter(D=5) < intra(D=5) < intra(D=1) at every N",
          _ordered("AllDisksOneRun D=5", "DemandRunOnly D=5",
                   "DemandRunOnly D=1"), "Figure 3.2a"),
    Claim("fig-3.2a", "intra(D=1) and inter(D=5) fall > 3x from N=1 to N=30",
          lambda result, _scale: all(
              _column(result, header)[-1] < _column(result, header)[0] / 3
              for header in ("DemandRunOnly D=1", "AllDisksOneRun D=5")),
          "Figure 3.2a"),
    Claim("fig-3.2b", "inter(D=10) < intra(D=10) < intra(D=1) at every N",
          _ordered("AllDisksOneRun D=10", "DemandRunOnly D=10",
                   "DemandRunOnly D=1"), "Figure 3.2b"),
    Claim("fig-3.2b", "inter(D=5) < intra(D=1) at every N",
          _ordered("AllDisksOneRun D=5", "DemandRunOnly D=1"), "Figure 3.2b"),
    Claim("fig-3.2b", "inter(D=10) < inter(D=5) at the largest N",
          lambda result, _scale: _column(result, "AllDisksOneRun D=10")[-1]
          < _column(result, "AllDisksOneRun D=5")[-1], "Figure 3.2b"),
    Claim("fig-3.2c", "inter < intra at every N, k=25",
          _ordered("AllDisksOneRun k=25", "DemandRunOnly k=25"), "Figure 3.2c"),
    Claim("fig-3.2c", "inter < intra at every N, k=50",
          _ordered("AllDisksOneRun k=50", "DemandRunOnly k=50"), "Figure 3.2c"),
    Claim("fig-3.2c", "inter-run t(k=50)/t(k=25) in (1.4, 2.8) at every N",
          lambda result, _scale: all(
              1.4 < b / a < 2.8 for a, b in zip(
                  _column(result, "AllDisksOneRun k=25"),
                  _column(result, "AllDisksOneRun k=50"))),
          "Figure 3.2c"),
    Claim("fig-3.3", "inter-run < intra-run at every CPU cost, unsync",
          _ordered("AllDisksOneRun unsync", "DemandRunOnly unsync"),
          "Figure 3.3"),
    Claim("fig-3.3", "inter-run < intra-run at every CPU cost, sync",
          _ordered("AllDisksOneRun sync", "DemandRunOnly sync"), "Figure 3.3"),
    Claim("fig-3.3", "synchronized times never fall as CPU cost grows",
          lambda result, _scale: all(
              _column(result, header) == sorted(_column(result, header))
              for header in ("AllDisksOneRun sync", "DemandRunOnly sync")),
          "Figure 3.3"),
    Claim("fig-3.3", "unsync inter-run grows at most 0.2 s more than sync",
          lambda result, _scale: _growth(result, "AllDisksOneRun unsync")
          <= _growth(result, "AllDisksOneRun sync") + 0.2, "Figure 3.3"),
    *_cache_sweep_claims("fig-3.5a", "Figures 3.5a/3.6a"),
    *_cache_sweep_claims("fig-3.5b", "Figures 3.5b/3.6b"),
    *_cache_sweep_claims("fig-3.5c", "Figures 3.5c/3.6c"),
    Claim("tab-markov", "chain parallelism in [1, D=4] for both policies",
          _every(lambda row: all(1.0 <= chain <= 4.0 + 1e-9
                                 for chain in row[1:3])),
          "companion TR (Markov chain)"),
    Claim("tab-markov", "simulated concurrency within 0.6 of the chain",
          _every(lambda row: _close(row[3], row[1], abs_=0.6)
                 and _close(row[4], row[2], abs_=0.6)),
          "companion TR (Markov chain)"),
    Claim("tab-markov", "policies converge at the largest cache (parallelism "
          "5%, time 10%)",
          _on_row(-1, lambda row: _close(row[1], row[2], rel=0.05)
                  and _close(row[5], row[6], rel=0.1)),
          "companion TR (Markov chain)"),
    Claim("tab-seek", "seek-distance pmf sums to 1",
          _every(lambda row: _close(row[4], 1.0, rel=1e-6)), "section 3.1"),
    Claim("tab-seek", "approximate E(x) within 1% of exact",
          _every(lambda row: _close(row[2], row[1], rel=0.01)), "section 3.1"),
    Claim("tab-seek", "empirical E(x) within 15% of exact",
          _every(lambda row: _close(row[3], row[1], rel=0.15)), "section 3.1"),
    Claim("tab-single", "simulated within 3% of the estimate",
          _every(lambda row: _close(row[2], row[1], rel=0.03)), "section 3.1"),
    Claim("tab-intra-1d", "simulated within 5% of the preload-adjusted "
          "estimate", _intra_1d_adjusted, "section 3.1"),
    Claim("tab-multi-nopf", "simulated within 3% of the estimate",
          _every(lambda row: _close(row[2], row[1], rel=0.03)), "section 3.2"),
    Claim("tab-urn", "urn concurrency 2.51 / 3.66 / 5.95 (+-0.02) at "
          "D=5 / 10 / 25",
          _every(lambda row: _close(row[1], _URN_CONCURRENCY[row[0]], abs_=0.02)),
          "section 3.2"),
    Claim("tab-urn", "urn concurrency below D",
          _every(lambda row: row[1] < row[3]), "section 3.2"),
    Claim("tab-urn", "measured concurrency within 25% of the urn prediction",
          _every(lambda row: _close(row[3], row[4], rel=0.25), table=1),
          "section 3.2 (N=30 is pre-asymptotic)"),
    Claim("tab-inter-sync", "simulated within 5% of the preload-adjusted "
          "estimate", _inter_sync_adjusted, "section 3.2"),
    Claim("tab-bounds", "transfer bounds within 1% of the paper's",
          _every(lambda row: _close(row[1], row[2], rel=0.01)), "section 3.2"),
    Claim("tab-bounds", "N=50 inter-run between its preload-adjusted 1/D "
          "bound and 1.5x the full bound", _near_transfer_bound, "section 3.2"),
    Claim("tab-bounds", "N=50 inter-run success ratio > 0.8",
          _every(lambda row: row[2] > 0.8, table=1), "section 3.2"),
    Claim("ablation-cache-policy", "conservative and greedy times within 15% "
          "at the largest cache",
          _on_row(-1, lambda row: _close(row[1], row[3], rel=0.15)),
          "companion TR (cache policy)"),
    Claim("ablation-cache-policy", "both policies finish at every cache size",
          _every(lambda row: row[1] > 0 and row[3] > 0),
          "companion TR (cache policy)"),
    Claim("ablation-selector", "victim selectors within 1.3x of each other "
          "at the generous cache",
          lambda result, _scale: max(_column(result, "time C=800"))
          < min(_column(result, "time C=800")) * 1.3,
          "section 2 (thesis heuristics)"),
    Claim("ablation-depletion-model", "real uniform merge within 25% of the "
          "random model",
          lambda result, _scale: _close(_named(result)["real merge: uniform"],
                                        _named(result)["random model"], rel=0.25),
          "section 2 (Kwan-Baer depletion model)"),
    Claim("ablation-depletion-model", "nearly-sorted merge > 1.5x the random "
          "model",
          lambda result, _scale: _named(result)["real merge: nearly-sorted"]
          > _named(result)["random model"] * 1.5,
          "section 2 (Kwan-Baer depletion model)"),
    Claim("ablation-streaming", "streaming never exceeds the paper model by "
          "more than 2%", _every(lambda row: row[2] <= row[1] * 1.02),
          "section 2 (per-fetch rotation charge)"),
    Claim("ablation-queue-discipline", "SSTF within 5% of FIFO on every row",
          _every(lambda row: _close(row[2], row[1], rel=0.05)),
          "section 2 (FIFO disk queues)"),
    Claim("ext-write-traffic", "W=1 within 25% of the write bound k*b*T",
          _write_bound, "extension (write traffic)"),
    Claim("ext-write-traffic", "widest array within 1.35x of ignored writes, "
          "never below",
          lambda result, _scale: _rows(result)[0][1] <= _rows(result)[-1][1]
          <= _rows(result)[0][1] * 1.35, "extension (write traffic)"),
    Claim("ext-write-traffic", "more write disks never hurt",
          lambda result, _scale: _column(result, "time (s)")[1:]
          == sorted(_column(result, "time (s)")[1:], reverse=True),
          "extension (write traffic)"),
    Claim("ext-skewed-depletion", "inter-run beats intra-run at alpha=0",
          lambda result, _scale: _skew(result, 0.0, "inter-run random")
          < _skew(result, 0.0, "intra-run"), "extension (skewed depletion)"),
    Claim("ext-skewed-depletion", "skew degrades random-victim inter-run more "
          "than intra-run",
          lambda result, _scale: _degradation(result, "inter-run random")
          > _degradation(result, "intra-run"), "extension (skewed depletion)"),
    Claim("ext-skewed-depletion", "intra-run degrades < 1.5x from alpha=0 to 2",
          lambda result, _scale: _degradation(result, "intra-run") < 1.5,
          "extension (skewed depletion)"),
    Claim("ext-skewed-depletion", "most-depleted victims beat random victims "
          "at alpha=2",
          lambda result, _scale: _skew(result, 2.0, "inter-run most-depleted")
          < _skew(result, 2.0, "inter-run random"),
          "extension (skewed depletion)"),
    Claim("ext-adaptive-depth", "adaptive depth at most 1.10x fixed at "
          "every cache", _every(lambda row: row[3] <= row[1] * 1.10),
          "extension (adaptive depth)"),
    Claim("ext-adaptive-depth", "adaptive < 0.8x fixed at the tightest cache",
          _on_row(0, lambda row: row[3] < row[1] * 0.8),
          "extension (adaptive depth)"),
    Claim("ext-pass-planning", "pass count never falls with depth",
          lambda result, _scale: _planned(result, 2)
          == sorted(_planned(result, 2)), "extension (multi-pass planning)"),
    Claim("ext-pass-planning", "merge time has an interior optimum in depth",
          _interior_optimum, "extension (multi-pass planning)"),
    Claim("ablation-k100", "inter-run beats intra-run at k=100, D=5 and D=10",
          lambda result, _scale: all(
              _named(result)[f"AllDisksOneRun D={d}"]
              < _named(result)[f"DemandRunOnly D={d}"] for d in (5, 10)),
          "section 3 (larger k)"),
)


def judge_claims(claims: Sequence[Claim], scale: Scale) -> list[ClaimVerdict]:
    """Run each claimed experiment once at ``scale``; judge its claims.

    An experiment or check that raises fails the claims it feeds, with
    the error in the verdict.  The experiments share one
    :func:`~repro.experiments.memo.trial_memo`, so a trajectory two of
    them simulate runs once.
    """
    by_experiment: dict[str, list[Claim]] = {}
    for claim in claims:
        by_experiment.setdefault(claim.experiment_id, []).append(claim)
    with trial_memo():
        verdicts = []
        for experiment_id, group in by_experiment.items():
            try:
                result = get_experiment(experiment_id).run(scale)
            except Exception as exc:
                verdicts += [
                    ClaimVerdict(experiment_id, claim.label, False, claim.source,
                                 _describe(exc))
                    for claim in group
                ]
                continue
            for claim in group:
                try:
                    ok, error = bool(claim.check(result, scale)), None
                except Exception as exc:
                    ok, error = False, _describe(exc)
                verdicts.append(
                    ClaimVerdict(experiment_id, claim.label, ok, claim.source, error)
                )
        return verdicts


def _describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


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
            config = replace(config, blocks_per_run=blocks_per_run)
        measured = expectation.metric(MergeSimulation(config).run())
        verdicts.append(_verdict(expectation.label, expectation.paper_value,
                                 measured, expectation.tolerance,
                                 expectation.source))
    return verdicts


def render_verdicts(verdicts: Sequence[Verdict],
                    summary: str = "paper values reproduced") -> str:
    """One line per verdict, then ``passed/total <summary>``."""
    width = max((len(verdict.label) for verdict in verdicts), default=0)
    lines = [
        f"[{'ok ' if verdict.ok else 'FAIL'}] {verdict.label:{width}s}"
        f"  expected {verdict.expected:8.2f}  measured {verdict.measured:8.2f}"
        f"  ({verdict.relative_error:+.1%})"
        for verdict in verdicts
    ]
    passed = sum(1 for verdict in verdicts if verdict.ok)
    lines.append(f"\n{passed}/{len(verdicts)} {summary}")
    return "\n".join(lines)


def render_claim_verdicts(verdicts: Sequence[ClaimVerdict]) -> str:
    lines = []
    for verdict in verdicts:
        status = "ok " if verdict.ok else "FAIL"
        error = f"  ({verdict.error})" if verdict.error else ""
        lines.append(
            f"[{status}] {verdict.experiment_id:25s} {verdict.label}{error}"
        )
    held = sum(1 for verdict in verdicts if verdict.ok)
    lines.append(f"\n{held}/{len(verdicts)} figure claims hold")
    return "\n".join(lines)
