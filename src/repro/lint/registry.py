"""The rule registry: stable ids, severities, and the rule protocol.

Rules come in two scopes:

* **file** rules get one parsed module at a time (:class:`ModuleInfo`)
  and yield findings for it — most rules work this way;
* **model** rules run once against the pass-1
  :class:`~repro.lint.project.ProjectModel` (import graph plus
  function/call index) — the layering, blocking-in-async,
  lock-discipline, and unawaited-coroutine rules live here.

Every rule registers under a stable ``RPRxxx`` id via
:func:`register`; ids are never reused, so baselines and inline
suppressions stay meaningful across versions.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

from repro.lint.findings import Finding, Severity


@dataclass
class ModuleInfo:
    """One source file, parsed once and shared by every rule."""

    path: Path  #: absolute path
    relpath: str  #: repo-relative POSIX path (e.g. ``src/repro/sim/batch.py``)
    source: str
    tree: ast.Module

    @property
    def package_path(self) -> str:
        """The path rules match against module prefixes: ``src/`` stripped."""
        if self.relpath.startswith("src/"):
            return self.relpath[len("src/"):]
        return self.relpath


def path_matches(package_path: str, prefixes: Iterable[str]) -> bool:
    """True when ``package_path`` names or lives under any of ``prefixes``.

    A prefix ending in ``.py`` must match the file exactly; otherwise it
    is a package/directory prefix matched at a path-component boundary.
    """
    for prefix in prefixes:
        prefix = prefix.rstrip("/")
        if prefix.endswith(".py"):
            if package_path == prefix:
                return True
        elif package_path == prefix or package_path.startswith(prefix + "/"):
            return True
    return False


@dataclass(frozen=True)
class Rule:
    """Metadata plus the checking callable for one ``RPRxxx`` id."""

    rule_id: str
    name: str
    severity: Severity
    rationale: str  #: which reproduction invariant the rule protects
    scope: str  #: ``"file"`` or ``"model"``
    #: file scope: ``check(module, config) -> Iterator[Finding]``
    #: model scope: ``check(model, config) -> Iterator[Finding]``
    check: Callable = field(compare=False)


_RULES: dict[str, Rule] = {}


def register(
    rule_id: str,
    name: str,
    severity: Severity,
    rationale: str,
    scope: str = "file",
) -> Callable:
    """Decorator registering a checking function under ``rule_id``."""
    if scope not in ("file", "model"):
        raise ValueError(f"unknown rule scope {scope!r}")

    def decorate(check: Callable) -> Callable:
        if rule_id in _RULES:
            raise ValueError(f"duplicate rule id {rule_id}")
        _RULES[rule_id] = Rule(
            rule_id=rule_id,
            name=name,
            severity=severity,
            rationale=rationale,
            scope=scope,
            check=check,
        )
        return check

    return decorate


def all_rules() -> list[Rule]:
    """Every registered rule, ordered by id."""
    _load_checkers()
    return [_RULES[rule_id] for rule_id in sorted(_RULES)]


def get_rule(rule_id: str) -> Rule:
    _load_checkers()
    try:
        return _RULES[rule_id]
    except KeyError:
        raise ValueError(
            f"unknown lint rule {rule_id!r}: "
            f"choose one of {', '.join(sorted(_RULES))}"
        ) from None


def _load_checkers() -> None:
    """Import the checker modules so their ``@register`` calls run."""
    import repro.lint.checkers  # noqa: F401  (import for side effect)


def make_finding(
    rule: Rule, module_path: str, node: ast.AST | int, message: str
) -> Finding:
    """A finding for ``rule`` at an AST node (or explicit line number)."""
    line = node if isinstance(node, int) else getattr(node, "lineno", 1)
    return Finding(
        path=module_path,
        line=line,
        rule=rule.rule_id,
        message=message,
        severity=rule.severity,
    )

