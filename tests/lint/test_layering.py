"""RPR010 against the miniature layered project in ``rpr010_layers/``.

The fixture package is linted under ``LAYERS`` (``core < svc < cli``)
and ships clean; each test copies it into a tmp dir and injects one
illegal import, asserting the finding names the full chain — both
endpoints, both layers, and the declared order — so the report is
actionable without opening the graph.
"""

import shutil

from lint_helpers import FIXTURES
from repro.lint.config import LintConfig
from repro.lint.engine import LintEngine

ENGINE_PY = "src/pkg/core/engine.py"

#: The fixture package's layers, lowest first.
LAYERS = {"core": ["pkg/core"], "svc": ["pkg/svc"], "cli": ["pkg/cli.py"]}


def _project(tmp_path):
    root = tmp_path / "layers"
    shutil.copytree(FIXTURES / "rpr010_layers", root)
    return root


def _run(root):
    return LintEngine(LintConfig(layers=LAYERS), root).run()


def _inject(root, relpath, line):
    path = root / relpath
    path.write_text(
        line + "\n" + path.read_text(encoding="utf-8"), encoding="utf-8"
    )


def test_the_clean_fixture_package_lints_clean(tmp_path):
    report = _run(_project(tmp_path))
    assert report.findings == []
    assert report.files_scanned == 8


def test_upward_import_reports_the_full_chain(tmp_path):
    root = _project(tmp_path)
    _inject(root, ENGINE_PY, "from pkg.svc import status")
    findings = _run(root).findings
    assert [f.rule for f in findings] == ["RPR010"]
    finding = findings[0]
    assert finding.path == ENGINE_PY
    assert finding.line == 1
    assert (
        "upward import: pkg.core.engine (layer 'core') imports "
        "pkg.svc.status (layer 'svc')" in finding.message
    )
    assert (
        "chain: pkg.core.engine [core] -> pkg.svc.status [svc], "
        "against layer order core < svc < cli" in finding.message
    )


def test_import_cycle_reports_the_concrete_cycle_path(tmp_path):
    # engine -> other closes the loop with the fixture's other -> engine;
    # both sit in the same layer, so the only finding is the cycle.
    root = _project(tmp_path)
    _inject(root, ENGINE_PY, "from pkg.core import other")
    findings = _run(root).findings
    assert [f.rule for f in findings] == ["RPR010"]
    assert (
        "import cycle: pkg.core.engine -> pkg.core.other -> pkg.core.engine"
        in findings[0].message
    )
    assert findings[0].path == ENGINE_PY


def test_function_scoped_upward_import_is_the_sanctioned_escape(tmp_path):
    root = _project(tmp_path)
    path = root / ENGINE_PY
    path.write_text(
        path.read_text(encoding="utf-8")
        + "\n\ndef late(k):\n"
        "    from pkg.svc.server import serve\n"
        "    return serve(k)\n",
        encoding="utf-8",
    )
    assert _run(root).findings == []


def test_inline_disable_suppresses_the_upward_import(tmp_path):
    root = _project(tmp_path)
    _inject(
        root, ENGINE_PY,
        "from pkg.svc import status  # repro-lint: disable=RPR010",
    )
    report = _run(root)
    assert report.findings == []
    assert report.suppressed == 1

