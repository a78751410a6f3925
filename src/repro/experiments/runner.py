"""Batch experiment execution and report writing.

One failing experiment no longer aborts the batch: its error is
reported (with the experiment id), an :class:`ExperimentResult` carrying
``error`` joins the returned list, and the remaining experiments still
run.  A :class:`~repro.experiments.memo.TrialMemo` lives for the call,
so each distinct trajectory is simulated once, and a configuration's
missing seeds run in parallel on its worker pool.
"""

from __future__ import annotations

import sys
import time
from typing import Iterable, Optional, TextIO

from repro.experiments.config import (
    ExperimentResult,
    Scale,
    all_experiments,
    get_experiment,
)
from repro.experiments.memo import trial_memo


def run_experiments(
    experiment_ids: Iterable[str],
    scale: Optional[Scale] = None,
    stream: Optional[TextIO] = None,
    workers: Optional[int] = None,
) -> list[ExperimentResult]:
    """Run experiments in order, streaming each report as it finishes.

    Every requested experiment yields exactly one entry in the returned
    list.  An experiment that raises produces a result with ``error``
    set (check :attr:`ExperimentResult.ok`) instead of aborting the
    remaining ones.  Every simulation goes through a
    :func:`~repro.experiments.memo.trial_memo` that reports its counts
    on stderr; ``workers`` sizes its process pool (default: the usable
    CPUs; ``1`` runs every trial in this process).  Reports and counts
    are the same for any ``workers``.
    """
    out = stream or sys.stdout
    scale = scale or Scale.full()
    results = []
    with trial_memo(workers):
        for experiment_id in experiment_ids:
            start = time.perf_counter()
            try:
                experiment = get_experiment(experiment_id)
                result = experiment.run(scale)
            except Exception as exc:
                result = ExperimentResult(
                    experiment_id=experiment_id,
                    title="(failed)",
                    error=f"{type(exc).__name__}: {exc}",
                )
                print(f"[{experiment_id} FAILED: {result.error}]\n", file=out)
                verdict = "FAILED after"
            else:
                print(result.render() + "\n", file=out)
                verdict = "finished in"
            results.append(result)
            out.flush()
            # Wall time goes to stderr, so two runs of the same code
            # write identical report streams.
            elapsed = time.perf_counter() - start
            print(f"[{experiment_id} {verdict} {elapsed:.1f}s]", file=sys.stderr)
    return results


def failed_experiment_ids(results: Iterable[ExperimentResult]) -> list[str]:
    """Ids of the results that carry an error."""
    return [result.experiment_id for result in results if not result.ok]


def default_experiment_ids(include_ablations: bool = True) -> list[str]:
    """Every primary experiment id (aliases excluded)."""
    ids = []
    for experiment in all_experiments():
        if experiment.description.startswith("(alias of"):
            continue
        if not include_ablations and experiment.experiment_id.startswith("ablation-"):
            continue
        ids.append(experiment.experiment_id)
    return ids
