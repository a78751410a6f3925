"""The simulation event loop and virtual clock.

The kernel is deliberately small: a binary heap of ``(time, sequence,
event)`` entries and a :meth:`Simulator.run` loop that pops entries in
time order and *fires* each event.  Everything else (processes,
timeouts, conditions) is built on top of :class:`~repro.sim.events.Event`.

Determinism: ties in time are broken by a monotonically increasing
sequence number, so two simulations driven by identically seeded random
streams produce identical trajectories.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Callable, Generator, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.sim.events import Event, Timeout
    from repro.sim.process import Process


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


#: The simulation kernels ``SimulationConfig.kernel`` accepts.  Both run
#: trials on :class:`Simulator`; ``batch`` (the default) first hands
#: whole trial batches to the flattened interpreter in
#: :mod:`repro.sim.batch` (see :func:`repro.api.run_trials`), while
#: ``reference`` is the readable event loop, the bit-identity oracle.
KERNELS = ("reference", "batch")
