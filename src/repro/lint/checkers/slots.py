"""RPR002: hot-kernel classes must stay slotted.

The batch interpreter's speed rests on lean per-trial state: its flat
trial, drive and request objects are read and written on every step of
the merge loop, and a ``__dict__`` silently reappearing on one of them
costs throughput without failing any functional test (batch and
reference still agree bit-for-bit).  Classes defined in the configured
hot-path modules must therefore declare ``__slots__`` — including
subclasses, where an inherited ``__slots__`` does *not* prevent the
subclass from growing a ``__dict__``; an empty ``__slots__ = ()`` is
the correct spelling for "no new attributes".
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from repro.lint.findings import Finding, Severity
from repro.lint.registry import (
    ModuleInfo,
    get_rule,
    make_finding,
    path_matches,
    register,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.lint.config import LintConfig

RULE_ID = "RPR002"


def _declares_slots(class_def: ast.ClassDef) -> bool:
    for statement in class_def.body:
        if isinstance(statement, ast.Assign):
            for target in statement.targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    return True
        elif isinstance(statement, ast.AnnAssign):
            target = statement.target
            if isinstance(target, ast.Name) and target.id == "__slots__":
                return True
    return False


def _is_exempt(class_def: ast.ClassDef) -> bool:
    """Enums and dataclass-decorated classes manage layout themselves."""
    for base in class_def.bases:
        name = base.attr if isinstance(base, ast.Attribute) else (
            base.id if isinstance(base, ast.Name) else ""
        )
        if name in ("Enum", "IntEnum", "StrEnum", "Flag", "IntFlag"):
            return True
    for decorator in class_def.decorator_list:
        node = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = node.attr if isinstance(node, ast.Attribute) else (
            node.id if isinstance(node, ast.Name) else ""
        )
        if name == "dataclass":
            return True
    return False


@register(
    RULE_ID,
    name="hot-path-slots",
    severity=Severity.ERROR,
    rationale=(
        "The batch interpreter's performance depends on slotted, "
        "__dict__-free per-trial state objects; losing __slots__ "
        "regresses throughput without failing any correctness test."
    ),
)
def check_slots(module: ModuleInfo, config: "LintConfig") -> Iterator[Finding]:
    if not path_matches(module.package_path, config.slots_modules):
        return
    rule = get_rule(RULE_ID)
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if _is_exempt(node) or _declares_slots(node):
            continue
        yield make_finding(
            rule,
            module.relpath,
            node,
            f"class {node.name} in a hot-path module must declare "
            "__slots__ (use __slots__ = () when it adds no attributes)",
        )
