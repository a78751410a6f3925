"""Rendering: text, JSON, SARIF, and DOT views of a lint run.

The finding reporters receive the same already-partitioned material —
new findings, grandfathered findings, stale baseline entries, and scan
stats — and return a string; writing it anywhere is the caller's job
(the CLI owns stdout, per RPR008).  :func:`render_dot` is the odd one
out: it renders the pass-1 import graph, collapsed to the configured
layer prefixes, as Graphviz source (``repro lint --graph dot``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.lint.baseline import BaselineEntry
from repro.lint.engine import LintReport
from repro.lint.findings import Finding, Severity

JSON_SCHEMA_VERSION = 1

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


@dataclass
class RunOutcome:
    """Everything one CLI lint run decided, ready for rendering."""

    report: LintReport
    new: list[Finding]
    grandfathered: list[Finding] = field(default_factory=list)
    stale_entries: list[BaselineEntry] = field(default_factory=list)
    baseline_path: str | None = None

    @property
    def exit_code(self) -> int:
        return 1 if self.new else 0


def render_text(outcome: RunOutcome, stats: bool = False) -> str:
    """Human-readable report: one finding per line plus a verdict."""
    lines: list[str] = []
    for finding in outcome.new:
        lines.append(finding.render())
    if outcome.grandfathered:
        lines.append(
            f"({len(outcome.grandfathered)} grandfathered finding(s) "
            f"suppressed by baseline {outcome.baseline_path})"
        )
    for entry in outcome.stale_entries:
        lines.append(
            f"stale baseline entry: {entry.rule} {entry.path} "
            f"({entry.message!r} no longer occurs) — remove it"
        )
    if stats:
        lines.append(render_stats(outcome.report))
    if outcome.new:
        lines.append(
            f"{len(outcome.new)} new finding(s); fix them, suppress a "
            "deliberate counter-example inline (# repro-lint: "
            "disable=RPRxxx), or baseline with a justification"
        )
    else:
        lines.append("lint: ok")
    return "\n".join(lines)


def render_stats(report: LintReport) -> str:
    """The ``--stats`` summary block."""
    by_rule = ", ".join(
        f"{rule}:{count}" for rule, count in report.counts_by_rule().items()
    ) or "none"
    return (
        f"lint stats: {report.files_scanned} file(s) scanned, "
        f"{report.rules_run} rule(s), {len(report.findings)} finding(s) "
        f"[{by_rule}], {report.suppressed} inline-suppressed, "
        f"{report.elapsed_s:.2f}s elapsed"
    )


def render_json(outcome: RunOutcome) -> str:
    """Machine-readable report (the CI artifact format)."""
    payload = {
        "version": JSON_SCHEMA_VERSION,
        "exit_code": outcome.exit_code,
        "baseline": outcome.baseline_path,
        "new_findings": [finding.to_dict() for finding in outcome.new],
        "grandfathered": [
            finding.to_dict() for finding in outcome.grandfathered
        ],
        "stale_baseline_entries": [
            entry.to_dict() for entry in outcome.stale_entries
        ],
        "stats": outcome.report.stats_dict(),
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _sarif_result(finding: Finding, *, suppressed: bool) -> dict:
    result = {
        "ruleId": finding.rule,
        "level": (
            "error" if finding.severity is Severity.ERROR else "warning"
        ),
        "message": {"text": finding.message},
        "locations": [{
            "physicalLocation": {
                "artifactLocation": {
                    "uri": finding.path,
                    "uriBaseId": "%SRCROOT%",
                },
                "region": {"startLine": max(finding.line, 1)},
            },
        }],
    }
    if suppressed:
        # Grandfathered findings ride along so code scanning shows the
        # debt, marked suppressed so they do not gate merges.
        result["suppressions"] = [{
            "kind": "external",
            "justification": "grandfathered in lint-baseline.json",
        }]
    return result


def render_sarif(outcome: RunOutcome) -> str:
    """SARIF 2.1.0 report for GitHub code scanning upload."""
    from repro.lint.registry import all_rules

    rules = [
        {
            "id": rule.rule_id,
            "name": rule.name,
            "shortDescription": {"text": rule.name},
            "fullDescription": {"text": rule.rationale},
            "defaultConfiguration": {
                "level": (
                    "error"
                    if rule.severity is Severity.ERROR
                    else "warning"
                ),
            },
        }
        for rule in all_rules()
    ]
    results = [
        _sarif_result(finding, suppressed=False) for finding in outcome.new
    ] + [
        _sarif_result(finding, suppressed=True)
        for finding in outcome.grandfathered
    ]
    payload = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": "repro-lint",
                    "informationUri":
                        "https://example.invalid/repro/docs/LINT.md",
                    "rules": rules,
                },
            },
            "results": results,
        }],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def render_dot(model, config) -> str:
    """The layer diagram: import graph collapsed to layer prefixes.

    Each ``LintConfig.layers`` prefix becomes one node, clustered by
    layer in declaration order (lowest first); an edge means *some*
    module under the source prefix imports *some* module under the
    target prefix at top level.  Output is deterministic, so the
    DESIGN.md embedding can be diffed against ``repro lint --graph
    dot``.
    """
    from repro.lint.checkers.layering import layer_of
    from repro.lint.registry import path_matches

    def group_of(package_path: str) -> str | None:
        # Longest matching prefix wins, same as layer_of's membership.
        best = None
        for prefixes in config.layers.values():
            for prefix in prefixes:
                if path_matches(package_path, [prefix]):
                    if best is None or len(prefix) > len(best):
                        best = prefix
        return best

    def node_name(prefix: str) -> str:
        trimmed = prefix[:-3] if prefix.endswith(".py") else prefix
        if trimmed.endswith("/__init__"):
            trimmed = trimmed[: -len("/__init__")]
        return trimmed.replace("/", ".")

    members: dict[str, set[str]] = {layer: set() for layer in config.layers}
    groups: dict[str, str] = {}
    for name, module in model.modules.items():
        prefix = group_of(module.info.package_path)
        layer = layer_of(module.info.package_path, config)
        if prefix is None or layer is None:
            continue
        groups[name] = node_name(prefix)
        members[layer].add(node_name(prefix))

    edges: set[tuple[str, str]] = set()
    for importer, imports in model.import_graph().items():
        for imported in imports:
            source, target = groups.get(importer), groups.get(imported)
            if source and target and source != target:
                edges.add((source, target))

    lines = [
        "digraph repro_layers {",
        "  rankdir=BT;",
        '  node [shape=box, fontname="Helvetica"];',
    ]
    for index, layer in enumerate(config.layers):
        lines.append(f"  subgraph cluster_{index} {{")
        lines.append(f'    label="{layer}";')
        for node in sorted(members.get(layer, ())):
            lines.append(f'    "{node}";')
        lines.append("  }")
    for source, target in sorted(edges):
        lines.append(f'  "{source}" -> "{target}";')
    lines.append("}")
    return "\n".join(lines)
