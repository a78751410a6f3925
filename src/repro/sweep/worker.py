"""The subprocess-side job runner.

``execute_job`` is a module-level function (so it pickles cleanly into a
``ProcessPoolExecutor``) that rebuilds the configuration from its
serialized form, runs exactly one seeded trial through
:func:`repro.api.run_trials`, and hands the metrics back as a JSON-able
dict.  ``execute_batch`` is its many-trials sibling: one config, many
trial indices, one ``run_trials`` call — which lets a ``batch`` kernel
execute the whole group through its flattened batch runner.

Runaway protection is the trial's own event budget
(:attr:`~repro.core.parameters.SimulationConfig.event_budget`), checked
inside the kernels: a trial that exhausts it raises
:class:`~repro.sim.kernel.TrialBudgetExceeded` like any other failing
job, identically in a pool process, an in-process thread, or inline.
"""

from __future__ import annotations

import time

from repro import api
from repro.sweep.keys import config_from_dict


def execute_job(payload: dict) -> dict:
    """Run one trial described by ``payload`` and return its result.

    Payload keys: ``config`` (dict from
    :func:`repro.sweep.keys.config_to_dict`) and ``trial`` (int).
    Returns ``{"metrics": ..., "elapsed_s": ...}``.
    """
    config = config_from_dict(payload["config"])
    start = time.perf_counter()
    metrics = api.run_trials([config], trials=[payload["trial"]])[0]
    return {
        "metrics": metrics.to_dict(),
        "elapsed_s": time.perf_counter() - start,
    }


def execute_batch(payload: dict) -> list[dict]:
    """Run many trials of one config; returns one result dict per trial.

    Payload keys: ``config`` (dict) and ``trials`` (list of ints).  The
    trials execute as a single :func:`repro.api.run_trials` batch — a
    ``batch`` kernel runs them through its flattened batch runner — and
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
    return [{"metrics": m.to_dict(), "elapsed_s": share} for m in metrics]
