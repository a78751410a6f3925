"""Linter configuration: the one statement of every rule's scope.

The defaults below encode this repository's invariants — which modules
are simulation code (no wall clocks, no global RNG), which are hot-path
(``__slots__`` required), where broad exception handlers need explicit
justification, which files may talk to stdout directly, and the layer
DAG.  ``repro lint`` runs with ``LintConfig()``; there is no file to
override it from.  A caller linting another tree passes a variant, e.g.
``LintConfig(layers={"core": ["pkg/core"], "cli": ["pkg/cli.py"]})``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class LintConfig:
    """Everything the engine and rules need to know about the project."""

    #: Directories/files linted when the CLI gets no explicit paths.
    paths: list[str] = field(default_factory=lambda: ["src"])
    #: Baseline file (repo-relative) of grandfathered findings.
    baseline: str = "lint-baseline.json"

    # -- RPR001 determinism --------------------------------------------------
    #: Simulation modules: no wall clocks, OS entropy, or global RNG.
    determinism_modules: list[str] = field(default_factory=lambda: [
        "repro/sim", "repro/core", "repro/disks", "repro/faults",
        "repro/workloads", "repro/obs", "repro/serve", "repro/dist",
        "repro/realio", "repro/netutil.py",
    ])
    #: The blessed randomness module itself (and any other exemptions).
    #: Wall-clock seam modules live in :attr:`wall_clock_seams` instead.
    determinism_exempt: list[str] = field(default_factory=lambda: [
        "repro/sim/random_streams.py",
    ])
    #: The injected wall-clock seams: the only modules allowed to touch
    #: ``time.time``/``monotonic`` inside determinism-checked packages.
    #: One list, consumed by both the determinism rule and the docs —
    #: each entry is a package's single sanctioned clock boundary.
    wall_clock_seams: list[str] = field(default_factory=lambda: [
        "repro/serve/clock.py",
        "repro/realio/clock.py",
    ])

    # -- RPR002 hot-path slotting --------------------------------------------
    #: Modules whose classes must declare ``__slots__``.
    slots_modules: list[str] = field(default_factory=lambda: [
        "repro/sim/batch.py",
    ])

    # -- RPR005 ordering hazards ---------------------------------------------
    #: Event-ordering code paths: iterating a set there is a replay hazard.
    ordering_modules: list[str] = field(default_factory=lambda: [
        "repro/sim", "repro/core", "repro/disks", "repro/faults",
        "repro/workloads", "repro/obs",
    ])

    # -- RPR006 exception discipline -----------------------------------------
    #: Worker/retry code where a broad ``except`` needs a baseline entry.
    broad_except_modules: list[str] = field(default_factory=lambda: [
        "repro/sweep", "repro/experiments/runner.py", "repro/faults",
        "repro/serve", "repro/dist", "repro/netutil.py",
    ])

    # -- RPR008 stdout discipline --------------------------------------------
    #: Modules allowed to call ``print()`` without an explicit stream.
    print_allowed: list[str] = field(default_factory=lambda: [
        "repro/cli.py", "repro/lint",
    ])

    # -- RPR010 layering -------------------------------------------------------
    #: Layer name -> list of module prefixes belonging to that layer,
    #: lowest (imported by everyone) first.  A module may import its own
    #: layer or any *earlier* one; importing a later layer is an upward
    #: dependency and a finding.
    layers: dict = field(default_factory=lambda: {
        "model": [
            "repro/sim", "repro/core", "repro/disks", "repro/faults",
            "repro/workloads", "repro/mergesort", "repro/io", "repro/obs",
            "repro/api.py", "repro/netutil.py", "repro/__init__.py",
        ],
        "engine": ["repro/sweep", "repro/analysis"],
        "services": [
            "repro/serve", "repro/dist", "repro/realio", "repro/bench",
            "repro/experiments",
        ],
        "cli": ["repro/cli.py", "repro/__main__.py", "repro/lint"],
    })
    # -- RPR011/RPR013 async rules ---------------------------------------------
    #: Packages whose ``async def`` bodies must not (transitively) block.
    async_blocking_modules: list[str] = field(default_factory=lambda: [
        "repro/serve", "repro/dist", "repro/netutil.py",
    ])

    # -- RPR012 lock discipline ------------------------------------------------
    #: Packages where shared attribute writes need a lock or annotation.
    lock_discipline_modules: list[str] = field(default_factory=lambda: [
        "repro/realio", "repro/dist", "repro/serve", "repro/netutil.py",
    ])


def find_project_root(start: Path) -> Path:
    """Walk up from ``start`` to the nearest directory with a pyproject."""
    current = start.resolve()
    if current.is_file():
        current = current.parent
    for candidate in (current, *current.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return start.resolve()
