"""Discrete-event simulation kernel.

This package is the reproduction's substrate for the Rice CSIM package
used by the paper: a small, dependency-free, process-oriented
discrete-event simulator.  Processes are plain Python generators that
``yield`` waitable :class:`~repro.sim.events.Event` objects; the
:class:`~repro.sim.kernel.Simulator` advances virtual time and resumes
processes as the events they wait on fire.

Public surface:

* :class:`Simulator` -- the event loop and virtual clock.
* :class:`Event`, :class:`Timeout`, :class:`AllOf`, :class:`AnyOf` --
  waitable primitives.
* :class:`Process` -- a running generator; itself waitable.
* :class:`RandomStreams` -- named, independently seeded RNG streams.
* :data:`KERNELS` -- the kernel names a config may choose:
  ``reference`` (this event loop) and ``batch`` (the default, which
  :func:`repro.api.run_trials` hands to the flattened interpreter in
  :mod:`repro.sim.batch`).
"""

from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.kernel import (
    KERNELS,
    SimulationError,
    Simulator,
    TrialBudgetExceeded,
)
from repro.sim.process import Process, ProcessFailure
from repro.sim.random_streams import RandomStreams

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "KERNELS",
    "Process",
    "ProcessFailure",
    "RandomStreams",
    "SimulationError",
    "Simulator",
    "Timeout",
    "TrialBudgetExceeded",
]
