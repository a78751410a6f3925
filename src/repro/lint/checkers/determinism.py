"""RPR001: simulation code must be bit-replayable from ``(seed, config)``.

The reproduction's headline guarantee — identical metrics across
kernels, fault plans, sweep workers, and machines — dies the moment any
simulation module reads a wall clock, pulls OS entropy, or draws from
the process-global RNG.  All randomness must flow through a named
:mod:`repro.sim.random_streams` stream (a seeded ``random.Random``
passed in explicitly); time exists only as simulated virtual time.

Flagged inside the configured determinism modules:

* module-level ``random.*`` calls (``random.random()``, ``choice`` ...)
  and ``from random import <function>`` imports;
* unseeded ``random.Random()`` / any ``random.SystemRandom`` use;
* wall clocks: ``time.time/&_ns``, ``perf_counter``, ``monotonic``,
  ``process_time`` and their ``from time import ...`` forms;
* ``datetime.now/utcnow/today`` and ``date.today``;
* OS entropy: ``os.urandom``, ``os.getrandom``, any ``secrets.*``,
  ``uuid.uuid1``/``uuid.uuid4``;
* ``numpy.random`` in any spelling.

Seeded ``random.Random(seed)`` construction and ``random.Random`` type
annotations are allowed — they are exactly how streams are built and
passed around.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from repro.lint.findings import Finding, Severity
from repro.lint.project import dotted_name
from repro.lint.registry import (
    ModuleInfo,
    get_rule,
    make_finding,
    path_matches,
    register,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.lint.config import LintConfig

RULE_ID = "RPR001"

#: ``from <module> import <name>`` pairs that leak non-determinism.
_BANNED_IMPORTS: dict[str, frozenset[str]] = {
    "random": frozenset({
        "random", "randint", "randrange", "choice", "choices", "shuffle",
        "sample", "uniform", "gauss", "normalvariate", "expovariate",
        "betavariate", "gammavariate", "lognormvariate", "paretovariate",
        "triangular", "vonmisesvariate", "weibullvariate", "getrandbits",
        "randbytes", "seed", "SystemRandom",
    }),
    "time": frozenset({
        "time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic",
        "monotonic_ns", "process_time", "process_time_ns",
    }),
    "os": frozenset({"urandom", "getrandom"}),
    "uuid": frozenset({"uuid1", "uuid4"}),
}

#: Fully dotted calls that read a wall clock.
_WALL_CLOCK_CALLS = frozenset(
    f"time.{name}" for name in _BANNED_IMPORTS["time"]
)

#: Attribute calls like ``datetime.now()`` / ``datetime.datetime.now()``.
_DATETIME_METHODS = frozenset({"now", "utcnow", "today"})
_DATETIME_ROOTS = frozenset({"datetime", "date"})


class _DeterminismVisitor(ast.NodeVisitor):
    def __init__(self, module: ModuleInfo) -> None:
        self.module = module
        self.findings: list[Finding] = []
        #: local aliases of the numpy package (``import numpy as np``).
        self.numpy_aliases: set[str] = set()
        rule = get_rule(RULE_ID)
        self._flag = lambda node, message: self.findings.append(
            make_finding(rule, module.relpath, node, message)
        )

    # -- imports -------------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "numpy" or alias.name.startswith("numpy."):
                self.numpy_aliases.add(alias.asname or alias.name.split(".")[0])
                if alias.name.startswith("numpy.random"):
                    self._flag(node, "import of numpy.random in a simulation "
                               "module; draw from a named "
                               "repro.sim.random_streams stream instead")
            if alias.name == "secrets":
                self._flag(node, "import of secrets (OS entropy) in a "
                           "simulation module; randomness must come from a "
                           "named repro.sim.random_streams stream")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        banned = _BANNED_IMPORTS.get(node.module or "")
        if banned:
            for alias in node.names:
                if alias.name in banned:
                    self._flag(node, f"from {node.module} import {alias.name} "
                               "in a simulation module; use a named "
                               "repro.sim.random_streams stream (randomness) "
                               "or simulated virtual time (clocks)")
        if node.module == "numpy":
            for alias in node.names:
                if alias.name == "random":
                    self._flag(node, "import of numpy.random in a simulation "
                               "module; draw from a named "
                               "repro.sim.random_streams stream instead")
        if node.module == "secrets":
            self._flag(node, "import from secrets (OS entropy) in a "
                       "simulation module; randomness must come from a "
                       "named repro.sim.random_streams stream")
        self.generic_visit(node)

    # -- calls and attribute access ------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        dotted = dotted_name(node.func)
        if dotted is not None:
            self._check_call(node, dotted)
        self.generic_visit(node)

    def _check_call(self, node: ast.Call, dotted: str) -> None:
        parts = dotted.split(".")
        if dotted == "random.Random":
            if not node.args and not node.keywords:
                self._flag(node, "unseeded random.Random() in a simulation "
                           "module seeds from OS entropy; derive the seed "
                           "from a repro.sim.random_streams stream")
            return
        if parts[0] == "random" and len(parts) > 1:
            if parts[-1] == "SystemRandom":
                self._flag(node, "random.SystemRandom() draws OS entropy; "
                           "use a seeded repro.sim.random_streams stream")
            else:
                self._flag(node, f"module-level random.{parts[-1]}() call in "
                           "a simulation module mutates global RNG state; "
                           "draw from a named repro.sim.random_streams "
                           "stream")
            return
        if dotted in _WALL_CLOCK_CALLS:
            self._flag(node, f"wall-clock {dotted}() call in a simulation "
                       "module; simulation code must use virtual time only")
            return
        if dotted in ("os.urandom", "os.getrandom"):
            self._flag(node, f"OS entropy {dotted}() call in a simulation "
                       "module; derive randomness from a named "
                       "repro.sim.random_streams stream")
            return
        if parts[0] == "secrets":
            self._flag(node, f"OS entropy {dotted}() call in a simulation "
                       "module; derive randomness from a named "
                       "repro.sim.random_streams stream")
            return
        if dotted in ("uuid.uuid1", "uuid.uuid4"):
            self._flag(node, f"{dotted}() is non-deterministic; derive ids "
                       "from the configuration and seed instead")
            return
        if (
            len(parts) >= 2
            and parts[-1] in _DATETIME_METHODS
            and parts[-2] in _DATETIME_ROOTS
        ):
            self._flag(node, f"wall-clock {dotted}() call in a simulation "
                       "module; simulation code must use virtual time only")

    def visit_Attribute(self, node: ast.Attribute) -> None:
        # numpy.random in any alias spelling, used as value or called.
        if (
            node.attr == "random"
            and isinstance(node.value, ast.Name)
            and node.value.id in self.numpy_aliases
        ):
            self._flag(node, "use of numpy.random in a simulation module; "
                       "draw from a named repro.sim.random_streams stream "
                       "instead")
        self.generic_visit(node)


@register(
    RULE_ID,
    name="determinism",
    severity=Severity.ERROR,
    rationale=(
        "Bit-identical replay across kernels, fault plans, and sweep "
        "workers requires every random draw to come from a named, seeded "
        "random_streams stream and time to be purely virtual."
    ),
)
def check_determinism(
    module: ModuleInfo, config: "LintConfig"
) -> Iterator[Finding]:
    if not path_matches(module.package_path, config.determinism_modules):
        return
    # Exemptions: the blessed randomness module plus the declared
    # wall-clock seams (one sanctioned clock boundary per package).
    exempt = list(config.determinism_exempt) + list(config.wall_clock_seams)
    if path_matches(module.package_path, exempt):
        return
    visitor = _DeterminismVisitor(module)
    visitor.visit(module.tree)
    yield from visitor.findings
