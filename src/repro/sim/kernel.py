"""The simulation event loop and virtual clock.

The kernel is deliberately small: a binary heap of ``(time, sequence,
event)`` entries and a :meth:`Simulator.run` loop that pops entries in
time order and *fires* each event.  Everything else (processes, stores,
resources) is built on top of :class:`~repro.sim.events.Event`.

Determinism: ties in time are broken by a monotonically increasing
sequence number, so two simulations driven by identically seeded random
streams produce identical trajectories.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Generator, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.core.metrics import MergeMetrics
    from repro.core.parameters import SimulationConfig
    from repro.sim.events import Event, Timeout
    from repro.sim.process import Process

    #: A batch runner executes many seeded trials of one configuration
    #: and returns their metrics in seed order.
    BatchRunner = Callable[..., "list[MergeMetrics]"]


class SimulationError(RuntimeError):
    """Raised for misuse of the kernel (e.g. re-triggering an event)."""


class TrialBudgetExceeded(SimulationError):
    """A run scheduled more events than its ``max_events`` budget.

    Raised by :meth:`Simulator.run` itself, never from inside a process
    generator, so it reaches the caller unwrapped.  A merge trial's
    budget is :attr:`~repro.core.parameters.SimulationConfig.event_budget`;
    exhausting it means the trial is a runaway, and it fails the same
    way on every kernel, thread and platform.
    """


class Simulator:
    """A process-oriented discrete-event simulator.

    Typical use::

        sim = Simulator()

        def worker(sim):
            yield sim.timeout(5.0)
            return "done"

        proc = sim.process(worker(sim))
        sim.run()
        assert sim.now == 5.0 and proc.value == "done"
    """

    __slots__ = ("_now", "_queue", "_sequence", "_active_processes")

    def __init__(self) -> None:
        self._now: float = 0.0
        self._queue: list[tuple[float, int, "Event"]] = []
        self._sequence: int = 0
        self._active_processes: int = 0

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def pending_events(self) -> int:
        """Number of events scheduled but not yet fired."""
        return len(self._queue)

    # ------------------------------------------------------------------
    # Scheduling primitives
    # ------------------------------------------------------------------
    def schedule(self, event: "Event", delay: float = 0.0) -> None:
        """Schedule ``event`` to fire ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._sequence += 1
        heapq.heappush(self._queue, (self._now + delay, self._sequence, event))

    def timeout(self, delay: float, value: object = None) -> "Timeout":
        """Create a :class:`Timeout` event firing ``delay`` units from now."""
        from repro.sim.events import Timeout

        return Timeout(self, delay, value)

    def event(self) -> "Event":
        """Create an untriggered event to be succeeded/failed manually."""
        from repro.sim.events import Event

        return Event(self)

    def process(self, generator: Generator, name: str = "") -> "Process":
        """Register ``generator`` as a new process starting immediately."""
        from repro.sim.process import Process

        return Process(self, generator, name=name)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Fire the single next scheduled event."""
        when, _seq, event = heapq.heappop(self._queue)
        self._now = when
        event._fire()

    def run(
        self,
        until: Optional[float] = None,
        stop_condition: Optional[Callable[[], bool]] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Run until the event queue drains (or ``until``/condition).

        Returns the final virtual time.  ``until`` is an inclusive time
        horizon; events scheduled beyond it remain queued.
        ``max_events`` caps the events scheduled over the simulator's
        lifetime: once more have been scheduled, the loop raises
        :class:`TrialBudgetExceeded` before firing the next one.
        """
        queue = self._queue
        while queue:
            if stop_condition is not None and stop_condition():
                break
            if until is not None and queue[0][0] > until:
                self._now = until
                break
            if max_events is not None and self._sequence > max_events:
                raise TrialBudgetExceeded(
                    f"simulation exceeded its event budget of "
                    f"{max_events} events"
                )
            self.step()
        return self._now


# ----------------------------------------------------------------------
# Kernel registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class KernelSpec:
    """One registered execution kernel.

    Attributes:
        name: the identifier accepted by ``SimulationConfig.kernel``
            and the CLI ``--kernel`` flag.
        factory: zero-argument callable returning a fresh
            :class:`Simulator` (or drop-in subclass) for one trial.
            Factories are deliberately lazy callables so registering a
            kernel never imports its implementation module — that keeps
            this registry import-light and cycle-free.
        description: one-line summary for listings and the docs.
        batch_runner: optional zero-argument loader returning a *batch
            runner* — ``runner(config, seeds, ...) ->
            list[MergeMetrics]`` executing many seeded trials of one
            configuration at once.  ``repro.api.run_trials`` routes
            whole trial batches through it when present; kernels
            without one run trial-at-a-time through ``factory``.
    """

    name: str
    factory: Callable[[], "Simulator"]
    description: str = ""
    batch_runner: Optional[Callable[[], "BatchRunner"]] = None


#: The process-wide kernel registry, keyed by spec name.
_REGISTRY: dict[str, KernelSpec] = {}


def register_kernel(spec: KernelSpec, *, replace: bool = False) -> KernelSpec:
    """Register ``spec``; returns it for chaining.

    Raises:
        ValueError: when ``spec.name`` is already registered and
            ``replace`` is False, or the name is empty.
    """
    if not spec.name:
        raise ValueError("kernel name must be non-empty")
    if spec.name in _REGISTRY and not replace:
        raise ValueError(
            f"kernel {spec.name!r} is already registered; pass "
            "replace=True to override it"
        )
    _REGISTRY[spec.name] = spec
    return spec


def unregister_kernel(name: str) -> KernelSpec:
    """Remove and return a registered spec (mainly for test teardown).

    Raises:
        ValueError: for unregistered names.
    """
    try:
        return _REGISTRY.pop(name)
    except KeyError:
        raise ValueError(f"kernel {name!r} is not registered") from None


def available_kernels() -> Sequence[KernelSpec]:
    """Every registered kernel spec, sorted by name."""
    return tuple(_REGISTRY[name] for name in sorted(_REGISTRY))


def kernel_names() -> list[str]:
    """The registered kernel names, sorted."""
    return sorted(_REGISTRY)


def get_kernel(name: str) -> KernelSpec:
    """Look up the spec registered under ``name``.

    Raises:
        ValueError: for unregistered names, listing the valid choices.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown simulation kernel {name!r}: "
            f"choose one of {', '.join(kernel_names())}"
        ) from None


def create_kernel(name: str) -> "Simulator":
    """Instantiate the kernel registered under ``name``.

    Raises:
        ValueError: for unregistered names, listing the valid choices.
    """
    return get_kernel(name).factory()


# -- built-in kernels ---------------------------------------------------
#
# The batch tier's runner is loaded lazily: looking it up (config
# validation, CLI choices) never imports repro.sim.batch, which would
# otherwise cycle through repro.core.


def _load_batch_runner() -> "BatchRunner":
    from repro.sim.batch import run_trial_batch

    return run_trial_batch


register_kernel(
    KernelSpec(
        name="reference",
        factory=Simulator,
        description=(
            "the readable event loop: binary-heap scheduler, generator "
            "processes (the opt-in bit-identity oracle)"
        ),
    )
)
register_kernel(
    KernelSpec(
        name="batch",
        factory=Simulator,
        description=(
            "the default: flattened lockstep interpreter for whole "
            "trial batches, batches of one included "
            "(repro.api.run_trials); unsupported configs fall back per "
            "trial to the reference kernel, counted in "
            "repro.sim.batch.fallback_counts()"
        ),
        batch_runner=_load_batch_runner,
    )
)
