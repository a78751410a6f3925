"""Checker modules; importing this package registers every rule.

Shipped rule ids (see ``docs/LINT.md`` for rationale and examples;
RPR003 and RPR009 are retired and their ids are not reused):

========  ==============================================================
RPR001    determinism: no wall clock / OS entropy / global RNG in
          simulation modules — randomness flows through named
          ``repro.sim.random_streams`` streams only
RPR002    hot-path classes must declare ``__slots__``
RPR004    serialization symmetry: ``to_dict`` without a matching
          ``from_dict`` (referencing every serialized key) is a
          round-trip hazard
RPR005    iterating a set in event-ordering code is replay-hazardous
RPR006    bare / swallowed / unjustified-broad exception handlers
RPR007    mutable default arguments
RPR008    ``print()`` without an explicit stream outside the CLI
RPR010    layering: the layer DAG declared in ``LintConfig.layers``
          forbids upward and cyclic imports — cross-file, runs on the
          project model
RPR011    blocking-in-async: coroutine bodies in the async packages
          must not reach sync I/O, transitively through the call index
RPR012    lock discipline: attributes mutated by thread-entry code
          need the owning lock or a ``shared-state=<why>`` annotation
RPR013    unawaited coroutine / fire-and-forget ``create_task``
========  ==============================================================
"""

from repro.lint.checkers import (  # noqa: F401  (register rules on import)
    concurrency,
    determinism,
    hygiene,
    layering,
    serialization,
    slots,
)
