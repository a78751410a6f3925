"""Linter configuration: defaults plus ``[tool.repro-lint]`` overrides.

The defaults below encode this repository's invariants — which modules
are simulation code (no wall clocks, no global RNG), which are hot-path
(``__slots__`` required), where broad exception handlers need explicit
justification, and which files may talk to stdout directly.  A project
can override any of them from ``pyproject.toml``::

    [tool.repro-lint]
    paths = ["src"]
    baseline = "lint-baseline.json"
    disable = ["RPR008"]
    determinism-modules = ["repro/sim", "repro/core"]

Parsing uses :mod:`tomllib` where available (Python 3.11+).  On 3.10 a
minimal fallback parser handles the subset this table needs (string,
bool, integer, flat string-list values, and the one nested
``[tool.repro-lint.layers]`` sub-table) so the linter stays
zero-dependency everywhere the repo supports.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional


@dataclass
class LintConfig:
    """Everything the engine and rules need to know about the project."""

    #: Directories/files linted when the CLI gets no explicit paths.
    paths: list[str] = field(default_factory=lambda: ["src"])
    #: Baseline file (repo-relative) of grandfathered findings.
    baseline: str = "lint-baseline.json"
    #: Rule ids disabled project-wide.
    disable: list[str] = field(default_factory=list)

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

    # -- RPR003 cache-key schema ---------------------------------------------
    #: The module defining the simulation configuration dataclass.
    config_module: str = "src/repro/core/parameters.py"
    #: The dataclass whose fields must be inventoried for cache keys.
    config_class: str = "SimulationConfig"
    #: The module declaring KNOWN_CONFIG_FIELDS / KEY_EXCLUDED_FIELDS.
    keys_module: str = "src/repro/sweep/keys.py"

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
    #: Layer name -> list of module prefixes belonging to that layer.
    #: Declared as the nested ``[tool.repro-lint.layers]`` table.
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
    #: Layer names from lowest (imported by everyone) to highest.  A
    #: module may import its own layer or any *earlier* layer; importing
    #: a later layer is an upward dependency and a finding.
    layer_order: list[str] = field(default_factory=lambda: [
        "model", "engine", "services", "cli",
    ])

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

    def is_disabled(self, rule_id: str) -> bool:
        return rule_id in self.disable


#: pyproject key (dashes) -> LintConfig attribute (underscores), for
#: keys whose spelling differs beyond the dash/underscore swap.
_LIST_RE = re.compile(r"^\[(.*)\]$", re.S)
_TABLE_RE = re.compile(r"^\s*\[(?P<name>[^\]]+)\]\s*$")
_KV_RE = re.compile(r"^\s*(?P<key>[A-Za-z0-9_\-\.]+)\s*=\s*(?P<value>.+?)\s*$")


def _parse_toml_value(text: str):
    """Parse the value subset the fallback parser supports."""
    text = text.strip()
    if text in ("true", "false"):
        return text == "true"
    if text.startswith('"') and text.endswith('"') and len(text) >= 2:
        return text[1:-1]
    match = _LIST_RE.match(text)
    if match:
        inner = match.group(1).strip()
        if not inner:
            return []
        return [_parse_toml_value(part) for part in _split_list(inner)]
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"unsupported TOML value: {text!r}") from None


def _split_list(inner: str) -> list[str]:
    """Split a flat TOML list body on commas outside quotes."""
    parts, depth, in_string, current = [], 0, False, []
    for char in inner:
        if char == '"':
            in_string = not in_string
            current.append(char)
        elif char == "[" and not in_string:
            depth += 1
            current.append(char)
        elif char == "]" and not in_string:
            depth -= 1
            current.append(char)
        elif char == "," and not in_string and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(char)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return parts


def _strip_comment(line: str) -> str:
    """Drop a ``#`` comment, respecting ``#`` inside quoted strings."""
    in_string = False
    for index, char in enumerate(line):
        if char == '"':
            in_string = not in_string
        elif char == "#" and not in_string:
            return line[:index]
    return line


def _fallback_parse_table(text: str, table: str) -> dict:
    """Extract one flat table from TOML without :mod:`tomllib` (3.10)."""
    values: dict = {}
    current_table: Optional[str] = None
    pending: Optional[tuple[str, list[str]]] = None
    for raw_line in text.splitlines():
        line = _strip_comment(raw_line)
        if pending is not None:
            key, chunks = pending
            chunks.append(line)
            joined = "\n".join(chunks)
            if joined.count("[") == joined.count("]"):
                values[key] = _parse_toml_value(joined)
                pending = None
            continue
        table_match = _TABLE_RE.match(line)
        if table_match:
            current_table = table_match.group("name").strip()
            continue
        if current_table != table:
            continue
        kv = _KV_RE.match(line)
        if not kv:
            continue
        key, value = kv.group("key"), kv.group("value")
        if value.count("[") != value.count("]"):  # multi-line list
            pending = (key, [value])
            continue
        values[key] = _parse_toml_value(value)
    return values


def _fallback_subtables(text: str, table: str) -> list[str]:
    """Names of ``[<table>.<name>]`` sub-tables present in ``text``."""
    prefix = table + "."
    names = []
    for raw_line in text.splitlines():
        match = _TABLE_RE.match(_strip_comment(raw_line))
        if match:
            name = match.group("name").strip()
            if name.startswith(prefix):
                names.append(name[len(prefix):])
    return names


def load_pyproject_table(pyproject: Path) -> dict:
    """The raw ``[tool.repro-lint]`` table, or ``{}`` when absent.

    Nested sub-tables (``[tool.repro-lint.layers]``) come back as dict
    values under their sub-table name, matching tomllib's shape.
    """
    if not pyproject.is_file():
        return {}
    try:
        import tomllib
    except ImportError:  # Python 3.10: minimal fallback parser
        return _fallback_load(pyproject.read_text(encoding="utf-8"))
    with open(pyproject, "rb") as handle:
        data = tomllib.load(handle)
    return data.get("tool", {}).get("repro-lint", {})


def _fallback_load(text: str) -> dict:
    """The whole ``[tool.repro-lint]`` table (with sub-tables), no tomllib."""
    values = _fallback_parse_table(text, "tool.repro-lint")
    for sub in _fallback_subtables(text, "tool.repro-lint"):
        values[sub] = _fallback_parse_table(text, f"tool.repro-lint.{sub}")
    return values


def load_config(root: Path) -> LintConfig:
    """The project's lint configuration (defaults where unspecified).

    Raises:
        ValueError: for unknown keys or wrongly typed values, naming
            the offending key so the config error is actionable.
    """
    table = load_pyproject_table(root / "pyproject.toml")
    config = LintConfig()
    known = {f.name: f for f in fields(LintConfig)}
    for raw_key, value in table.items():
        attr = raw_key.replace("-", "_")
        if attr not in known:
            raise ValueError(
                f"unknown [tool.repro-lint] key {raw_key!r} "
                f"(known: {', '.join(sorted(k.replace('_', '-') for k in known))})"
            )
        default = getattr(config, attr)
        if isinstance(default, list) and not isinstance(value, list):
            raise ValueError(f"[tool.repro-lint] {raw_key!r} must be a list")
        if isinstance(default, str) and not isinstance(value, str):
            raise ValueError(f"[tool.repro-lint] {raw_key!r} must be a string")
        if isinstance(default, dict) and not isinstance(value, dict):
            raise ValueError(f"[tool.repro-lint] {raw_key!r} must be a table")
        setattr(config, attr, value)
    return config


def find_project_root(start: Path) -> Path:
    """Walk up from ``start`` to the nearest directory with a pyproject."""
    current = start.resolve()
    if current.is_file():
        current = current.parent
    for candidate in (current, *current.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return start.resolve()
