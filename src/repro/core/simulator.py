"""Public entry point: run a configuration over several seeded trials.

Example::

    from repro import MergeSimulation, SimulationConfig, PrefetchStrategy

    config = SimulationConfig(
        num_runs=25,
        num_disks=5,
        strategy=PrefetchStrategy.INTER_RUN,
        prefetch_depth=10,
        cache_capacity=800,
    )
    result = MergeSimulation(config).run()
    print(result.total_time_s.mean, result.success_ratio.mean)

Ambient run options — execution backend, fault plan, kernel choice,
tracing — come from :mod:`repro.api`::

    with repro.api.configure(kernel="batch", trace=True) as ctx:
        result = MergeSimulation(config).run()

Trial execution itself is delegated to :func:`repro.api.run_trials`;
the methods here are thin wrappers that keep the historical signatures
(new execution capabilities — batching, timeouts — land only on the
batch API).
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from repro import api
from repro.core.metrics import AggregateMetrics, MergeMetrics
from repro.core.parameters import PrefetchStrategy, SimulationConfig

#: Optional alternative executor for whole configurations.  When
#: installed (``RunContext(backend=...)``), :meth:`MergeSimulation.run`
#: delegates to it — this is how the sweep engine (:mod:`repro.sweep`)
#: transparently adds caching and a worker pool underneath existing
#: experiment code.  Backends must preserve the serial contract: trial
#: ``t`` seeded ``base_seed + t``, trials aggregated in order.
SimulationBackend = Callable[[SimulationConfig], AggregateMetrics]


class MergeSimulation:
    """Runs ``config.trials`` independent trials and aggregates them."""

    def __init__(self, config: SimulationConfig) -> None:
        # Resolved here, not only in run_trials: an ambient backend (and
        # the sweep cache keys it computes) sees self.config directly.
        self.config = api.resolve_config(config)

    def run_trial(
        self,
        *,
        trial: int = 0,
        depletion_source: Optional[Iterator[int]] = None,
    ) -> MergeMetrics:
        """Run one trial; trial ``t`` is seeded ``base_seed + t``.

        Thin wrapper over :func:`repro.api.run_trials` — a batch of
        one.  Batch-only capabilities (per-trial timeouts, wholesale
        batch-kernel dispatch) are reachable only through that API;
        this signature is frozen.
        """
        return api.run_trials(
            [self.config],
            trials=[trial],
            depletion_sources=[depletion_source],
        )[0]

    def run(self) -> AggregateMetrics:
        """Run all trials and return aggregated metrics.

        Delegates to the ambient simulation backend, if any (see
        ``repro.api.RunContext(backend=...)``); otherwise the trials
        run as one :func:`repro.api.run_trials` batch (on the ``batch``
        kernel, one flattened-interpreter call) and aggregate
        in trial order.
        """
        backend = api.current_backend()
        if backend is not None:
            return backend(self.config)
        count = self.config.trials
        trials = api.run_trials(
            [self.config] * count, trials=range(count)
        )
        return AggregateMetrics(
            config_description=self.config.describe(),
            trials=trials,
        )


def simulate_merge(
    num_runs: int,
    num_disks: int,
    *,
    strategy: PrefetchStrategy = PrefetchStrategy.NONE,
    prefetch_depth: int = 1,
    **kwargs,
) -> AggregateMetrics:
    """Thin convenience wrapper over :class:`MergeSimulation`.

    Exactly equivalent to building a
    :class:`~repro.core.parameters.SimulationConfig` from the arguments
    (extra keywords are forwarded verbatim) and calling
    ``MergeSimulation(config).run()`` — same ambient options, same
    backend routing, same aggregation, same
    :func:`repro.api.run_trials` execution underneath.  Use the class
    when you need to keep the config around or run individual trials;
    use ``run_trials`` directly for batch-only capabilities (timeouts,
    batch-kernel dispatch, heterogeneous configs).  This signature is
    frozen — it gains no new parameters.
    """
    config = SimulationConfig(
        num_runs=num_runs,
        num_disks=num_disks,
        strategy=strategy,
        prefetch_depth=prefetch_depth,
        **kwargs,
    )
    return MergeSimulation(config).run()
