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
* :class:`Store` -- an unbounded/bounded FIFO channel between processes.
* :class:`Resource` -- a counting semaphore with FIFO queueing.
* :class:`RandomStreams` -- named, independently seeded RNG streams.
* :class:`KernelSpec`, :func:`register_kernel`,
  :func:`available_kernels`, :func:`kernel_names`, :func:`get_kernel`,
  :func:`create_kernel` -- the kernel registry every execution tier
  (reference, batch, plug-ins) is selected through.
"""

from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.kernel import (
    KernelSpec,
    SimulationError,
    Simulator,
    available_kernels,
    create_kernel,
    get_kernel,
    kernel_names,
    register_kernel,
    unregister_kernel,
)
from repro.sim.process import Process, ProcessFailure
from repro.sim.random_streams import RandomStreams
from repro.sim.resources import Resource, Store

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "KernelSpec",
    "Process",
    "ProcessFailure",
    "RandomStreams",
    "Resource",
    "SimulationError",
    "Simulator",
    "Store",
    "Timeout",
    "available_kernels",
    "create_kernel",
    "get_kernel",
    "kernel_names",
    "register_kernel",
    "unregister_kernel",
]
