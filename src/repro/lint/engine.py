"""The lint engine: walk files, parse once, run every rule, report.

One :meth:`LintEngine.run` call produces a :class:`LintReport` holding
the raw findings (suppressions already applied — an inline disable
means the finding never existed) plus scan statistics.  Baseline
handling is layered on top by the CLI so programmatic callers can see
everything.

A file that fails to parse yields a single ``RPR000`` finding rather
than crashing the run: a syntax error in one module must not unlint
the rest of the tree.
"""

from __future__ import annotations

import ast
import time
from dataclasses import dataclass
from pathlib import Path

from repro.lint.config import LintConfig
from repro.lint.findings import Finding, Severity
from repro.lint.project import build_project_model
from repro.lint.registry import ModuleInfo, all_rules
from repro.lint.suppress import Suppressions

#: Pseudo-rule id for files the engine cannot parse.
PARSE_ERROR_RULE = "RPR000"

#: Directory names never descended into.
_SKIPPED_DIRS = frozenset({
    "__pycache__", ".git", ".hypothesis", ".pytest_cache",
})

#: Build-artifact directory names: skipped only when they are NOT
#: Python packages, so a source package that happens to be called
#: ``dist`` or ``build`` (e.g. ``repro/dist``) still gets linted.
_ARTIFACT_DIRS = frozenset({"build", "dist"})


def _is_skipped(path: Path) -> bool:
    parts = path.parts
    for index, part in enumerate(parts):
        if part in _SKIPPED_DIRS:
            return True
        if part in _ARTIFACT_DIRS:
            directory = Path(*parts[: index + 1])
            if not (directory / "__init__.py").is_file():
                return True
    return False


@dataclass
class LintReport:
    """Findings plus scan statistics for one engine run."""

    findings: list[Finding]
    files_scanned: int
    rules_run: int
    elapsed_s: float
    suppressed: int = 0

    def counts_by_rule(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items()))

    def stats_dict(self) -> dict:
        return {
            "files_scanned": self.files_scanned,
            "rules_run": self.rules_run,
            "findings": len(self.findings),
            "suppressed": self.suppressed,
            "elapsed_s": round(self.elapsed_s, 3),
            "by_rule": self.counts_by_rule(),
        }


class LintEngine:
    """Runs the registered rules over a file set."""

    def __init__(self, config: LintConfig, root: Path) -> None:
        self.config = config
        self.root = root.resolve()

    # -- file collection -----------------------------------------------------

    def collect_files(self, paths: list[str] | None = None) -> list[Path]:
        """Every ``.py`` file under ``paths`` (default: config paths)."""
        chosen = paths if paths else self.config.paths
        files: list[Path] = []
        seen: set[Path] = set()
        for entry in chosen:
            path = Path(entry)
            if not path.is_absolute():
                path = self.root / path
            if path.is_file():
                candidates = [path]
            elif path.is_dir():
                candidates = sorted(
                    candidate
                    for candidate in path.rglob("*.py")
                    if not _is_skipped(candidate)
                )
            else:
                raise FileNotFoundError(f"lint path does not exist: {entry}")
            for candidate in candidates:
                resolved = candidate.resolve()
                if resolved not in seen:
                    seen.add(resolved)
                    files.append(resolved)
        return files

    def _relpath(self, path: Path) -> str:
        try:
            return path.relative_to(self.root).as_posix()
        except ValueError:
            return path.as_posix()

    def build_model(self, paths: list[str] | None = None):
        """Pass 1 alone: the :class:`ProjectModel` for ``paths``.

        Unparseable files are skipped (``run`` is where they become
        RPR000 findings); this exists for consumers that want the model
        without a lint verdict, like ``repro lint --graph dot``.
        """
        modules: list[ModuleInfo] = []
        for path in self.collect_files(paths):
            source = path.read_text(encoding="utf-8")
            try:
                tree = ast.parse(source)
            except SyntaxError:
                continue
            modules.append(ModuleInfo(
                path=path, relpath=self._relpath(path), source=source,
                tree=tree,
            ))
        return build_project_model(modules)

    # -- the run -------------------------------------------------------------

    def run(self, paths: list[str] | None = None) -> LintReport:
        start = time.perf_counter()
        files = self.collect_files(paths)
        rules = all_rules()
        file_rules = [rule for rule in rules if rule.scope == "file"]
        model_rules = [rule for rule in rules if rule.scope == "model"]

        # RPR000 parse errors: no rule ran, so nothing can suppress them.
        findings: list[Finding] = []
        checked: list[Finding] = []
        modules: list[ModuleInfo] = []
        suppressions: dict[str, Suppressions] = {}

        for path in files:
            relpath = self._relpath(path)
            source = path.read_text(encoding="utf-8")
            try:
                tree = ast.parse(source)
            except SyntaxError as exc:
                findings.append(Finding(
                    path=relpath,
                    line=exc.lineno or 1,
                    rule=PARSE_ERROR_RULE,
                    message=f"file does not parse: {exc.msg}",
                    severity=Severity.ERROR,
                ))
                continue
            module = ModuleInfo(
                path=path, relpath=relpath, source=source, tree=tree
            )
            modules.append(module)
            suppressions[relpath] = Suppressions.parse(source)
            for rule in file_rules:
                checked.extend(rule.check(module, self.config))

        if model_rules:
            # Pass 2: one whole-repo model, shared by every model rule.
            model = build_project_model(modules)
            for rule in model_rules:
                checked.extend(rule.check(model, self.config))

        # Every rule reports in a parsed module, whose inline
        # suppressions were read above.
        suppressed = 0
        for finding in checked:
            if suppressions[finding.path].is_suppressed(
                finding.rule, finding.line
            ):
                suppressed += 1
            else:
                findings.append(finding)

        findings.sort()
        return LintReport(
            findings=findings,
            files_scanned=len(files),
            rules_run=len(rules),
            elapsed_s=time.perf_counter() - start,
            suppressed=suppressed,
        )
