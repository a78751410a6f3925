"""The ``repro lint`` subcommand implementation.

Exit codes: ``0`` no new findings (grandfathered ones may remain),
``1`` new findings, ``2`` usage errors (a lint path that does not
exist, an unreadable baseline file).  The parent CLI
(:mod:`repro.cli`) registers the arguments via
:func:`add_lint_arguments` and dispatches here.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.lint.baseline import Baseline
from repro.lint.config import LintConfig, find_project_root
from repro.lint.engine import LintEngine
from repro.lint.reporters import (
    RunOutcome,
    render_dot,
    render_json,
    render_sarif,
    render_stats,
    render_text,
)


def add_lint_arguments(parser) -> None:
    """Attach the ``repro lint`` arguments to an argparse subparser."""
    parser.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="output format (json is the CI artifact format, sarif the "
        "code-scanning upload format)",
    )
    parser.add_argument(
        "--baseline", metavar="FILE", default=None,
        help="baseline file of grandfathered findings (default: "
        "lint-baseline.json)",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="report every finding, ignoring the baseline",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="grandfather all current findings into the baseline file "
        "(keeps existing reasons; new entries get a TODO reason to "
        "justify in review) and exit 0",
    )
    parser.add_argument(
        "--prune-baseline", action="store_true",
        help="drop baseline entries that no longer match any finding "
        "(paid-down debt) and rewrite the file; exits 0",
    )
    parser.add_argument(
        "--graph", choices=("dot",), default=None,
        help="instead of linting, print the pass-1 import graph "
        "collapsed to the configured layers (Graphviz source)",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="append a summary (findings per rule, files scanned, "
        "elapsed time)",
    )
    parser.add_argument(
        "--root", default=None,
        help="project root (default: nearest ancestor of the current "
        "directory containing pyproject.toml)",
    )


def run_lint(args) -> int:
    """Execute ``repro lint`` for parsed ``args``; returns the exit code."""
    out = sys.stdout
    root = (
        Path(args.root).resolve()
        if args.root is not None
        else find_project_root(Path.cwd())
    )
    config = LintConfig()
    engine = LintEngine(config, root)
    try:
        if args.graph:
            print(render_dot(engine.build_model(args.paths or None), config),
                  file=out)
            return 0
        report = engine.run(args.paths or None)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    baseline_path = root / (args.baseline or config.baseline)
    if args.write_baseline:
        try:
            previous = Baseline.load(baseline_path)
        except ValueError:
            previous = Baseline()
        baseline = Baseline.from_findings(report.findings, previous)
        baseline.write(baseline_path)
        print(
            f"baseline written to {baseline_path} "
            f"({len(baseline.entries)} entr(y/ies)); review any "
            "TODO reasons",
            file=out,
        )
        if args.stats:
            print(render_stats(report), file=out)
        return 0

    if args.prune_baseline:
        try:
            baseline = Baseline.load(baseline_path)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        _, _, stale = baseline.split(report.findings)
        stale_fingerprints = {entry.fingerprint for entry in stale}
        baseline.entries = [
            entry for entry in baseline.entries
            if entry.fingerprint not in stale_fingerprints
        ]
        baseline.write(baseline_path)
        print(
            f"baseline pruned: {len(stale)} stale entr(y/ies) removed, "
            f"{len(baseline.entries)} kept in {baseline_path}",
            file=out,
        )
        return 0

    if args.no_baseline:
        new, grandfathered, stale = report.findings, [], []
        shown_baseline = None
    else:
        try:
            baseline = Baseline.load(baseline_path)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        new, grandfathered, stale = baseline.split(report.findings)
        shown_baseline = (
            str(baseline_path.relative_to(root))
            if baseline_path.is_file()
            else None
        )

    outcome = RunOutcome(
        report=report,
        new=new,
        grandfathered=grandfathered,
        stale_entries=stale,
        baseline_path=shown_baseline,
    )
    if args.format == "json":
        print(render_json(outcome), file=out)
    elif args.format == "sarif":
        print(render_sarif(outcome), file=out)
    else:
        print(render_text(outcome, stats=args.stats), file=out)
    return outcome.exit_code
