"""Shared helpers for the lint test suite (not a test module).

The golden fixtures under ``fixtures/`` are never imported; they are
parsed as text and linted under a *fabricated* repo-relative path, so
one fixture file can stand in for ``src/repro/sim/...`` (in scope) or
``src/repro/analysis/...`` (out of scope) as each test requires.

Expected findings are driven by ``# expect: <text>`` markers inside the
fixtures: one marker per violating line, whose text must be a substring
of the finding's message.  Keeping the expectations next to the
violations means fixture edits cannot silently desynchronise the test.
"""

import ast
from pathlib import Path

from repro.lint.config import LintConfig
from repro.lint.registry import ModuleInfo, get_rule

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures"

_MARKER = "# expect:"


def module_from_source(source: str, relpath: str) -> ModuleInfo:
    """A ModuleInfo for inline source, linted under ``relpath``."""
    return ModuleInfo(
        path=REPO_ROOT / relpath,
        relpath=relpath,
        source=source,
        tree=ast.parse(source),
    )


def load_fixture(name: str, relpath: str) -> ModuleInfo:
    """Parse ``fixtures/<name>`` as if it lived at ``relpath``."""
    return module_from_source(
        (FIXTURES / name).read_text(encoding="utf-8"), relpath
    )


def expected_markers(module: ModuleInfo) -> list[tuple[int, str]]:
    """``(line, message_substring)`` pairs from ``# expect:`` markers."""
    markers = []
    for number, line in enumerate(module.source.splitlines(), start=1):
        if _MARKER in line:
            markers.append(
                (number, line.split(_MARKER, 1)[1].strip())
            )
    return markers


def run_rule(rule_id: str, module: ModuleInfo, config: LintConfig | None = None):
    """Sorted findings from one file-scope rule over one module."""
    rule = get_rule(rule_id)
    return sorted(rule.check(module, config or LintConfig()))


def run_model_rule(
    rule_id: str,
    modules: list[ModuleInfo],
    config: LintConfig | None = None,
):
    """Sorted findings from one model-scope rule over a module set."""
    from repro.lint.project import build_project_model

    rule = get_rule(rule_id)
    model = build_project_model(modules)
    return sorted(rule.check(model, config or LintConfig()))
