"""The subprocess-side job runner.

``execute_job`` is a module-level function (so it pickles cleanly into
the worker pool, :mod:`repro.sweep.pool`) that rebuilds the configuration from its
serialized form, runs exactly one seeded trial through
:func:`repro.api.run_trials`, and hands the metrics back as a JSON-able
dict.  ``execute_batch`` is its many-trials sibling: one config, many
trial indices, one ``run_trials`` call — which runs a ``batch``-kernel
group through the flattened interpreter in one go.  :func:`execute_cell`
is how the sweep engine (inline and pooled) and the dist worker use the
pair: a group of one cell's trials (see :func:`cell_groups`) as one
batch, trial by trial with retries only when the batch fails.

Runaway protection is the trial's own event budget
(:attr:`~repro.core.parameters.SimulationConfig.event_budget`), checked
inside the kernels: a trial that exhausts it raises
:class:`~repro.sim.kernel.TrialBudgetExceeded` like any other failing
job, identically in a pool process, an in-process thread, or inline.
"""

from __future__ import annotations

import time
from typing import Callable, Hashable, Sequence, TypeVar, Union

from repro import api
from repro.sweep.keys import config_from_dict

J = TypeVar("J")


def execute_job(payload: dict) -> dict:
    """Run one trial described by ``payload`` and return its result.

    Payload keys: ``config`` (dict from
    :func:`repro.sweep.keys.config_to_dict`) and ``trial`` (int).
    Returns ``{"metrics": ..., "elapsed_s": ..., "fallback": ...}``,
    ``fallback`` being why a batch-kernel trial ran on the reference
    kernel (``None`` if it did not).
    """
    config = config_from_dict(payload["config"])
    start = time.perf_counter()
    metrics = api.run_trials([config], trials=[payload["trial"]])[0]
    return {
        "metrics": metrics.to_dict(),
        "elapsed_s": time.perf_counter() - start,
        "fallback": metrics.fallback,
    }


def execute_batch(payload: dict) -> list[dict]:
    """Run many trials of one config; returns one result dict per trial.

    Payload keys: ``config`` (dict) and ``trials`` (list of ints).  The
    trials execute as a single :func:`repro.api.run_trials` batch — on
    the ``batch`` kernel, one flattened-interpreter call — and
    results come back in ``trials`` order, shaped exactly like
    :func:`execute_job` results.  ``elapsed_s`` is the batch wall-clock
    split evenly across the trials (individual trials are not timed
    inside a batch).
    """
    config = config_from_dict(payload["config"])
    trials: list[int] = list(payload["trials"])
    start = time.perf_counter()
    metrics = api.run_trials([config] * len(trials), trials=trials)
    elapsed = time.perf_counter() - start
    share = elapsed / len(trials) if trials else 0.0
    return [
        {"metrics": m.to_dict(), "elapsed_s": share, "fallback": m.fallback}
        for m in metrics
    ]


def cell_groups(
    jobs: Sequence[J], cell: Callable[[J], Hashable]
) -> list[list[J]]:
    """Split ``jobs`` into runs of adjacent jobs of one grid cell.

    Jobs arrive in spec expansion order, so one cell's uncached trials
    are always adjacent; cache hits merely shrink a group.
    """
    groups: list[list[J]] = []
    for job in jobs:
        if groups and cell(groups[-1][0]) == cell(job):
            groups[-1].append(job)
        else:
            groups.append([job])
    return groups


#: What :func:`execute_cell` returns: each trial's result dict or last
#: exception, in trial order, and the retries made.
CellResult = tuple[list[Union[dict, Exception]], int]


def execute_cell(
    config: dict, trials: Sequence[int], *, attempts: int = 1
) -> CellResult:
    """Run trials of one config: one batch, else trial by trial.

    Several trials go to one :func:`execute_batch` call (``run_trials``
    decides how they execute: the batch kernel as one interpreter
    batch, the reference kernel trial by trial).  If that call fails,
    each trial runs through :func:`execute_job`, up to ``attempts``
    times.  Returns, in ``trials`` order, each trial's result dict or
    the exception of its last attempt, and the number of retries made:
    the attempts of a trial after it failed on its own.  A failed batch
    call is not one, so the count does not depend on how trials were
    grouped.
    """
    if len(trials) > 1:
        try:
            return execute_batch({"config": config, "trials": list(trials)}), 0
        except Exception:
            # Whatever failed (one runaway trial aborts the whole batch
            # call), trial by trial retries each trial and attributes
            # failures precisely.
            return _trial_by_trial(config, trials, attempts)
    return _trial_by_trial(config, trials, attempts)


def _trial_by_trial(
    config: dict, trials: Sequence[int], attempts: int
) -> CellResult:
    """Each trial through :func:`execute_job`, up to ``attempts`` times."""
    retries = 0
    outcomes: list[Union[dict, Exception]] = []
    for trial in trials:
        for attempt in range(1, attempts + 1):
            try:
                outcome = execute_job({"config": config, "trial": trial})
                break
            except Exception as exc:
                outcome = exc
                if attempt < attempts:
                    retries += 1
        outcomes.append(outcome)
    return outcomes, retries
