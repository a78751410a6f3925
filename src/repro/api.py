"""The run API: ambient run options plus the batch trial entry point.

Historically the repo grew three parallel ambient mechanisms, each a
module global plus a setter plus a context manager in
:mod:`repro.core.simulator`:

* ``simulation_backend`` — route :meth:`MergeSimulation.run` through
  the sweep engine's cache and worker pool,
* ``fault_plan_override`` — subject plan-free configs to a fault
  schedule,
* ``kernel_override`` — execute on a named (result-equivalent) kernel.

:class:`RunContext` composes all three, plus tracing, behind a single
scope::

    from repro.api import configure

    with configure(kernel="batch", trace=True) as ctx:
        result = MergeSimulation(config).run()
    ctx.trace.export_chrome("merge.json")

Every option distinguishes *unset* (inherit the enclosing scope) from
an explicit ``None`` (clear for this scope), so contexts nest the way
lexical scopes do.

:func:`run_trials` is the one trial-execution path: it applies the
ambient options, enforces per-trial wall-clock budgets, and dispatches
whole batches to kernels that register a batch runner (the ``batch``
tier).  ``MergeSimulation.run_trial``/``run``, the sweep engine's
:func:`~repro.sweep.worker.execute_job`, and through it the serve and
dist workers are all thin wrappers over it.

This module is import-light on purpose: :mod:`repro.core.simulator`
and :mod:`repro.core.merge_sim` read the ambient state from here, so
importing anything from ``repro.core`` at module level would cycle
(``run_trials`` imports it lazily inside the call).
"""

from __future__ import annotations

import contextlib
import dataclasses
import signal
import threading
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

#: Ambient state shared by every RunContext (module-level, like the
#: three globals it replaces).  Values are ``None`` when inactive.
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


def set_option(name: str, value: Any) -> Any:
    """Unscoped install of one ambient option; returns the previous value.

    Prefer :class:`RunContext` — this exists for embedders that need
    set-and-return-previous semantics without a lexical scope (e.g.
    per-task option juggling in async servers).
    """
    if name not in _FIELDS:
        raise ValueError(
            f"unknown run option {name!r} (known: {', '.join(_FIELDS)})"
        )
    return _set(name, value)


class RunContext:
    """One scoped bundle of ambient run options.

    Options left unset inherit from the enclosing scope; options set to
    ``None`` are cleared inside the scope.  ``trace=True`` creates a
    fresh :class:`~repro.obs.collector.TraceSession` (available as
    :attr:`trace` during and after the scope); an existing session can
    be passed to accumulate several runs into one trace.

    ``sanitize=True`` additionally switches on the runtime concurrency
    sanitizer (:mod:`repro.lint.sanitizer`) for the duration of the
    scope.  Unlike the other options it is not ambient state to read
    back — it instruments shared-state classes process-wide while at
    least one sanitizing scope is open.

    Reusable and reentrant: each ``with`` entry snapshots exactly the
    fields this context sets and restores them on exit.
    """

    __slots__ = ("_options", "_saved", "_sanitize")

    def __init__(
        self,
        *,
        backend: Union["SimulationBackend", None, _Unset] = UNSET,
        fault_plan: Union["FaultPlan", None, _Unset] = UNSET,
        kernel: Union[str, None, _Unset] = UNSET,
        trace: Union[TraceSession, bool, None, _Unset] = UNSET,
        sanitize: bool = False,
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
        self._sanitize = bool(sanitize)

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
        if self._sanitize:
            # Function-scoped import: repro.lint sits above this module
            # in the layer DAG, and the sanitizer is opt-in anyway.
            from repro.lint import sanitizer

            sanitizer.enable()
        return self

    def __exit__(self, *exc_info) -> None:
        for name, value in self._saved.pop().items():
            _set(name, value)
        if self._sanitize:
            from repro.lint import sanitizer

            sanitizer.disable()

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
    sanitize: bool = False,
) -> RunContext:
    """Build a :class:`RunContext` — the idiomatic spelling.

    ``with configure(kernel="batch"): ...`` reads better at call sites
    than naming the class; the two are interchangeable.
    """
    return RunContext(
        backend=backend, fault_plan=fault_plan, kernel=kernel, trace=trace,
        sanitize=sanitize,
    )


# ----------------------------------------------------------------------
# Batch trial execution
# ----------------------------------------------------------------------
class TrialTimeoutError(RuntimeError):
    """A trial exceeded its per-trial wall-clock budget."""


#: Whether this platform has SIGALRM at all (POSIX).  Off it, trials
#: run without a wall-clock guard.
HAVE_SIGALRM = hasattr(signal, "SIGALRM")


def timeouts_enforceable() -> bool:
    """Can :func:`run_trials` enforce wall-clock budgets right now?

    SIGALRM is POSIX-only and may only be armed from the main thread;
    anywhere else trials run unguarded (callers can record the fact —
    see the sweep worker's ``timeout_enforced`` result field).
    """
    return HAVE_SIGALRM and (
        threading.current_thread() is threading.main_thread()
    )


def _alarm_handler(signum, frame):  # pragma: no cover - fires mid-trial
    raise TrialTimeoutError("trial exceeded its timeout")


def _timed_out(exc: BaseException) -> bool:
    """Did ``exc`` (or anything in its cause chain) come from the guard?

    The alarm fires mid-trial, so the raised :class:`TrialTimeoutError`
    usually surfaces wrapped — e.g. inside a
    :class:`~repro.sim.process.ProcessFailure` when the delivery lands
    in a simulation process generator.
    """
    seen: set[int] = set()
    current: Optional[BaseException] = exc
    while current is not None and id(current) not in seen:
        if isinstance(current, TrialTimeoutError):
            return True
        seen.add(id(current))
        current = current.__cause__ or current.__context__
    return False


@contextlib.contextmanager
def _trial_guard(timeout_s: Optional[float]):
    """Arm a per-trial SIGALRM budget for the enclosed trial.

    Re-armed on an interval (not one-shot): a single alarm can be lost
    when delivery lands inside a context that swallows the raise (GC
    callbacks, C extensions), which would silently drop the guard.
    No-op when budgets cannot be enforced here.
    """
    if not timeout_s or not timeouts_enforceable():
        yield
        return
    previous_handler = signal.signal(signal.SIGALRM, _alarm_handler)
    signal.setitimer(signal.ITIMER_REAL, timeout_s, timeout_s)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous_handler)


def run_trials(
    configs: Sequence["SimulationConfig"],
    *,
    trials: Optional[Sequence[int]] = None,
    depletion_sources: Optional[Sequence[Optional[Iterator[int]]]] = None,
    timeout_s: Optional[float] = None,
) -> "list[MergeMetrics]":
    """Execute a batch of seeded trials; the one trial-execution path.

    Each entry of ``configs`` runs one trial — entry ``i`` is seeded
    ``configs[i].base_seed + trials[i]`` (``trials`` defaults to all
    zeros).  Results return in input order.  Single trials are simply
    batches of one, so every caller shares one implementation of:

    * **RunContext inheritance** — the ambient ``fault_plan`` and
      ``kernel`` are applied to each config by :func:`resolve_config`,
      as ``MergeSimulation`` applies them;
    * **timeouts** — ``timeout_s`` arms a per-trial SIGALRM budget
      (each trial gets the full budget); an exhausted trial raises
      :class:`TrialTimeoutError`.  Unenforceable environments (no
      SIGALRM, non-main thread) run unguarded — check
      :func:`timeouts_enforceable`;
    * **obs emission** — with an ambient trace session installed,
      trials run per-trial on their event kernel so the trace stays
      complete (the flattened batch tier emits no trace);
    * **batch dispatch** — trials whose effective kernel registers a
      batch runner (``kernel="batch"``) are grouped by config and
      handed to it wholesale; the runner masks out trials it cannot
      execute natively and falls back to the reference kernel for
      them.

    Keyword-only by design: new execution capabilities land here, not
    on the thin ``simulate_merge``/``run_trial`` wrappers.
    """
    # Lazy core imports: this module must stay import-light (the core
    # modules read ambient state from here at import time).
    from repro.core.merge_sim import MergeTrial
    from repro.sim.kernel import get_kernel

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

    # Group batchable trials by (identical) config; everything else
    # runs per-trial on its event kernel.
    serial: list[int] = []
    groups: list[tuple["SimulationConfig", list[int]]] = []
    for i, config in enumerate(effective):
        spec = get_kernel(config.kernel)
        if (
            spec.batch_runner is None
            or tracing
            or depletion_sources[i] is not None
        ):
            serial.append(i)
            continue
        for other, members in groups:
            if other == config:
                members.append(i)
                break
        else:
            groups.append((config, [i]))

    for config, members in groups:
        runner = get_kernel(config.kernel).batch_runner()
        seeds = [config.base_seed + trials[i] for i in members]
        batch = runner(config, seeds, guard=lambda: _trial_guard(timeout_s))
        for i, metrics in zip(members, batch):
            results[i] = metrics

    for i in serial:
        config = effective[i]
        try:
            with _trial_guard(timeout_s):
                results[i] = MergeTrial(
                    config,
                    seed=config.base_seed + trials[i],
                    depletion_source=depletion_sources[i],
                ).run()
        except TrialTimeoutError:
            raise
        except Exception as exc:
            if _timed_out(exc):
                raise TrialTimeoutError(
                    "trial exceeded its timeout"
                ) from None
            raise

    return results  # type: ignore[return-value]
