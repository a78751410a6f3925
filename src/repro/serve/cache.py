"""The service's read-through cache front over the sweep ResultStore.

Every answer the service has ever computed — and every answer any sweep
campaign has ever computed on this store — is addressable by
:func:`repro.sweep.keys.trial_keys`, so the front door's first move
is always a store lookup: hits are answered from one JSON read without
touching the worker pool.  A miss keeps the key its lookup derived; the
server coalesces on it and writes the computed trial back under it
through the same :meth:`~repro.sweep.store.ResultStore.put` the sweep
engine uses (atomic temp-file + ``os.replace``), so a serve worker pool
and a sweep campaign can share ``results/cache/`` concurrently and feed
each other hits.
"""

from __future__ import annotations

from repro.core.metrics import MergeMetrics
from repro.core.parameters import SimulationConfig
from repro.sweep.keys import config_to_dict, trial_keys
from repro.sweep.store import ResultStore


class CacheFront:
    """Trial-granular read/write surface the server pipelines through."""

    def __init__(self, store: ResultStore) -> None:
        self.store = store

    def lookup_trials(
        self, config: SimulationConfig
    ) -> tuple[dict[int, MergeMetrics], dict[int, str]]:
        """Split ``config``'s trials into cache hits and misses.

        Returns ``(hits, misses)``: ``hits`` maps trial number to its
        cached metrics, ``misses`` maps each trial number still to
        compute to its store key, in trial order.
        """
        hits: dict[int, MergeMetrics] = {}
        misses: dict[int, str] = {}
        seeds = [config.base_seed + trial for trial in range(config.trials)]
        for trial, key in enumerate(trial_keys(config, seeds)):
            cached = self.store.get(key)
            if cached is not None:
                hits[trial] = cached
            else:
                misses[trial] = key
        return hits, misses

    def store_trial(
        self, key: str, config: SimulationConfig, trial: int, payload: dict
    ) -> MergeMetrics:
        """Persist one computed trial (worker ``execute_job`` payload)
        under ``key``, the key its lookup derived.

        Returns the decoded metrics so the caller answers from the same
        object it just cached.
        """
        metrics = MergeMetrics.from_dict(payload["metrics"])
        self.store.put(
            key,
            metrics,
            config=config_to_dict(config),
            seed=config.base_seed + trial,
            elapsed_s=payload.get("elapsed_s"),
        )
        return metrics
