"""repro.lint — static enforcement of the reproduction's invariants.

A zero-dependency (stdlib :mod:`ast`) analysis suite that mechanically
checks what would otherwise rest on convention and after-the-fact
tests: simulation determinism (RPR001), hot-path slotting (RPR002),
serialization symmetry (RPR004), supporting hygiene rules
(RPR005–RPR008), and the cross-file rules (RPR010–RPR013).  See
``docs/LINT.md`` for the full rule catalogue and workflow.

Programmatic use::

    from pathlib import Path
    from repro.lint import LintConfig, LintEngine

    report = LintEngine(LintConfig(), Path(".")).run(["src"])
    for finding in report.findings:
        print(finding.render())  # repro-lint: disable=RPR008

CLI: ``repro lint [paths] [--format json] [--baseline FILE]
[--write-baseline] [--no-baseline] [--stats]``.
"""

from repro.lint.baseline import Baseline, BaselineEntry
from repro.lint.config import LintConfig, find_project_root
from repro.lint.engine import LintEngine, LintReport
from repro.lint.findings import Finding, Severity
from repro.lint.registry import Rule, all_rules, get_rule

__all__ = [
    "Baseline",
    "BaselineEntry",
    "Finding",
    "LintConfig",
    "LintEngine",
    "LintReport",
    "Rule",
    "Severity",
    "all_rules",
    "find_project_root",
    "get_rule",
]
