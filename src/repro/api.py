"""The run API: ambient run options plus the batch trial entry point.

:class:`RunContext` is the one surface for the ambient run options:

* ``backend`` — answer :meth:`MergeSimulation.run` from another
  executor (the report's
  :class:`~repro.experiments.memo.TrialMemo`),
* ``fault_plan`` — subject plan-free configs to a fault schedule,
* ``kernel`` — execute on a named (result-equivalent) kernel,
* ``trace`` — collect a structured trace.

All four sit behind a single scope::

    from repro.api import configure

    with configure(kernel="reference", trace=True) as ctx:
        result = MergeSimulation(config).run()
    ctx.trace.export_chrome("merge.json")

Every option distinguishes *unset* (inherit the enclosing scope) from
an explicit ``None`` (clear for this scope), so contexts nest the way
lexical scopes do.

:func:`run_trials` is the one trial-execution path: it applies the
ambient options and hands whole batches of ``kernel="batch"`` trials
to the flattened interpreter (:func:`repro.sim.batch.run_trial_batch`).
Runaway protection is not its job: every trial carries a
deterministic event budget
(:attr:`~repro.core.parameters.SimulationConfig.event_budget`) that the
kernels enforce themselves, raising
:class:`~repro.sim.kernel.TrialBudgetExceeded` on any thread.
``MergeSimulation.run_trial``/``run``, the sweep engine's
:func:`~repro.sweep.worker.execute_job`, and through it the serve and
dist workers are all thin wrappers over it.

This module is import-light on purpose: :mod:`repro.core.simulator`
and :mod:`repro.core.merge_sim` read the ambient state from here, so
importing anything from ``repro.core`` at module level would cycle
(``run_trials`` imports it lazily inside the call).
"""

from __future__ import annotations

import dataclasses
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterator,
    Optional,
    Sequence,
    Union,
)

from repro.obs.collector import TraceSession

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.metrics import AggregateMetrics, MergeMetrics
    from repro.core.parameters import SimulationConfig
    from repro.faults.plan import FaultPlan

    SimulationBackend = Callable[["SimulationConfig"], "AggregateMetrics"]


class _Unset:
    """Sentinel distinguishing "not passed" from an explicit ``None``."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "UNSET"


UNSET = _Unset()

#: The ambient option names, in the order RunContext accepts them.
_FIELDS = ("backend", "fault_plan", "kernel", "trace")

#: Ambient state shared by every RunContext (module-level).  Values are
#: ``None`` when inactive.
_state: dict[str, Any] = {name: None for name in _FIELDS}


def current_backend() -> Optional["SimulationBackend"]:
    """The ambient simulation backend, if any."""
    return _state["backend"]


def current_fault_plan() -> Optional["FaultPlan"]:
    """The ambient fault plan applied to plan-free configs, if any."""
    return _state["fault_plan"]


def current_kernel() -> Optional[str]:
    """The ambient kernel-name override, if any."""
    return _state["kernel"]


def current_trace() -> Optional[TraceSession]:
    """The ambient trace session, if tracing is on.

    This is *the* tracing switch: simulation code holds the returned
    session (or ``None``) and guards every emission with
    ``if trace is not None``.
    """
    return _state["trace"]


def resolve_config(config: "SimulationConfig") -> "SimulationConfig":
    """``config`` with the ambient fault plan (if it has none) and the
    ambient kernel applied: the one place ambient options reach a config.
    """
    plan = current_fault_plan()
    if plan is not None and config.fault_plan is None:
        config = dataclasses.replace(config, fault_plan=plan)
    kernel = current_kernel()
    if kernel is not None and config.kernel != kernel:
        config = dataclasses.replace(config, kernel=kernel)
    return config


def _set(name: str, value: Any) -> Any:
    """Install one ambient value, returning the previous one."""
    previous = _state[name]
    _state[name] = value
    return previous


class RunContext:
    """One scoped bundle of ambient run options.

    Options left unset inherit from the enclosing scope; options set to
    ``None`` are cleared inside the scope.  ``trace=True`` creates a
    fresh :class:`~repro.obs.collector.TraceSession` (available as
    :attr:`trace` during and after the scope); an existing session can
    be passed to accumulate several runs into one trace.

    Reusable and reentrant: each ``with`` entry snapshots exactly the
    fields this context sets and restores them on exit.
    """

    __slots__ = ("_options", "_saved")

    def __init__(
        self,
        *,
        backend: Union["SimulationBackend", None, _Unset] = UNSET,
        fault_plan: Union["FaultPlan", None, _Unset] = UNSET,
        kernel: Union[str, None, _Unset] = UNSET,
        trace: Union[TraceSession, bool, None, _Unset] = UNSET,
    ) -> None:
        if trace is True:
            trace = TraceSession()
        elif trace is False:
            trace = None
        self._options: dict[str, Any] = {}
        for name, value in (
            ("backend", backend),
            ("fault_plan", fault_plan),
            ("kernel", kernel),
            ("trace", trace),
        ):
            if not isinstance(value, _Unset):
                self._options[name] = value
        self._saved: list[dict[str, Any]] = []

    @property
    def trace(self) -> Optional[TraceSession]:
        """The trace session this context installs (or ``None``)."""
        return self._options.get("trace")

    @property
    def kernel(self) -> Optional[str]:
        """The kernel override this context installs (or ``None``)."""
        return self._options.get("kernel")

    def __enter__(self) -> "RunContext":
        self._saved.append(
            {name: _set(name, value) for name, value in self._options.items()}
        )
        return self

    def __exit__(self, *exc_info) -> None:
        for name, value in self._saved.pop().items():
            _set(name, value)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        rendered = ", ".join(
            f"{name}={value!r}" for name, value in self._options.items()
        )
        return f"RunContext({rendered})"


def configure(
    *,
    backend: Union["SimulationBackend", None, _Unset] = UNSET,
    fault_plan: Union["FaultPlan", None, _Unset] = UNSET,
    kernel: Union[str, None, _Unset] = UNSET,
    trace: Union[TraceSession, bool, None, _Unset] = UNSET,
) -> RunContext:
    """Build a :class:`RunContext` — the idiomatic spelling.

    ``with configure(kernel="reference"): ...`` reads better at call sites
    than naming the class; the two are interchangeable.
    """
    return RunContext(
        backend=backend, fault_plan=fault_plan, kernel=kernel, trace=trace
    )


# ----------------------------------------------------------------------
# Batch trial execution
# ----------------------------------------------------------------------
def run_trials(
    configs: Sequence["SimulationConfig"],
    *,
    trials: Optional[Sequence[int]] = None,
    depletion_sources: Optional[Sequence[Optional[Iterator[int]]]] = None,
) -> "list[MergeMetrics]":
    """Execute a batch of seeded trials; the one trial-execution path.

    Each entry of ``configs`` runs one trial — entry ``i`` is seeded
    ``configs[i].base_seed + trials[i]`` (``trials`` defaults to all
    zeros).  Results return in input order.  Single trials are simply
    batches of one, so every caller shares one implementation of:

    * **RunContext inheritance** — the ambient ``fault_plan`` and
      ``kernel`` are applied to each config by :func:`resolve_config`,
      as ``MergeSimulation`` applies them;
    * **event budgets** — each trial runs under its config's
      ``event_budget``; a runaway raises
      :class:`~repro.sim.kernel.TrialBudgetExceeded` with the same
      message on every kernel and thread;
    * **obs emission** — with an ambient trace session installed,
      trials run per-trial on their event kernel so the trace stays
      complete (the flattened batch tier emits no trace);
    * **batch dispatch** — trials whose effective kernel is ``batch``
      are grouped by config and handed wholesale to
      :func:`repro.sim.batch.run_trial_batch`, which falls back to the
      reference kernel for the trials it cannot execute natively.
      Traced and depletion-source trials run on the reference kernel,
      their metrics' ``fallback`` set to ``"traced"`` or
      ``"depletion-source"``; ``kernel="reference"`` trials run one by
      one.

    Keyword-only by design: new execution capabilities land here, not
    on the thin ``simulate_merge``/``run_trial`` wrappers.
    """
    # Lazy core imports: this module must stay import-light (the core
    # modules read ambient state from here at import time).
    from repro.core.merge_sim import MergeTrial

    n = len(configs)
    if trials is None:
        trials = [0] * n
    if len(trials) != n:
        raise ValueError(
            f"trials has {len(trials)} entries for {n} config(s)"
        )
    if depletion_sources is None:
        depletion_sources = [None] * n
    if len(depletion_sources) != n:
        raise ValueError(
            f"depletion_sources has {len(depletion_sources)} entries "
            f"for {n} config(s)"
        )

    effective = [resolve_config(config) for config in configs]
    results: list[Optional["MergeMetrics"]] = [None] * n
    tracing = current_trace() is not None

    # Group batch-kernel trials by (identical) config; everything else
    # runs per-trial on the event kernel.
    serial: list[int] = []
    fallbacks: dict[int, str] = {}
    groups: list[tuple["SimulationConfig", list[int]]] = []
    for i, config in enumerate(effective):
        if config.kernel != "batch":
            serial.append(i)
            continue
        if tracing or depletion_sources[i] is not None:
            fallbacks[i] = "traced" if tracing else "depletion-source"
            serial.append(i)
            continue
        for other, members in groups:
            if other == config:
                members.append(i)
                break
        else:
            groups.append((config, [i]))

    if groups:
        # Imported per call, never at module top: repro.sim.batch
        # imports repro.core, which imports this module.
        from repro.sim.batch import run_trial_batch

        for config, members in groups:
            seeds = [config.base_seed + trials[i] for i in members]
            batch = run_trial_batch(config, seeds)
            for i, metrics in zip(members, batch):
                results[i] = metrics

    for i in serial:
        config = effective[i]
        metrics = MergeTrial(
            config,
            seed=config.base_seed + trials[i],
            depletion_source=depletion_sources[i],
        ).run()
        metrics.fallback = fallbacks.get(i)
        results[i] = metrics

    return results  # type: ignore[return-value]
