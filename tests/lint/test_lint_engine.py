"""The engine over synthetic project trees: collection, suppression, RPR000."""

from repro.lint.config import LintConfig
from repro.lint.engine import PARSE_ERROR_RULE, LintEngine
from repro.lint.findings import Severity


def _project(tmp_path, files):
    for relpath, source in files.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source, encoding="utf-8")
    return LintEngine(LintConfig(), tmp_path)


def test_inline_suppression_removes_and_counts_the_finding(tmp_path):
    engine = _project(tmp_path, {
        "src/repro/sim/clock.py": (
            "import time\n"
            "\n"
            "def poll():\n"
            "    return time.time()  # repro-lint: disable=RPR001\n"
            "\n"
            "def stamp():\n"
            "    return time.time()\n"
        ),
    })
    report = engine.run()
    assert [(f.rule, f.line) for f in report.findings] == [("RPR001", 7)]
    assert report.suppressed == 1


def test_file_level_suppression_covers_the_module(tmp_path):
    engine = _project(tmp_path, {
        "src/repro/analysis/narrate.py": (
            "# repro-lint: disable-file=RPR008\n"
            "def narrate(x):\n"
            "    print(x)\n"
            "    print(x, x)\n"
        ),
    })
    report = engine.run()
    assert report.findings == []
    assert report.suppressed == 2


def test_syntax_error_yields_rpr000_not_a_crash(tmp_path):
    engine = _project(tmp_path, {
        "src/repro/sim/broken.py": "def oops(:\n",
        "src/repro/sim/fine.py": "VALUE = 1\n",
    })
    report = engine.run()
    assert [f.rule for f in report.findings] == [PARSE_ERROR_RULE]
    finding = report.findings[0]
    assert finding.severity is Severity.ERROR
    assert finding.message.startswith("file does not parse:")
    assert report.files_scanned == 2  # the healthy file still linted


def test_collection_skips_caches_and_deduplicates(tmp_path):
    engine = _project(tmp_path, {
        "src/repro/sim/a.py": "VALUE = 1\n",
        "src/repro/sim/__pycache__/a.py": "VALUE = 2\n",
    })
    files = engine.collect_files(["src", "src/repro/sim/a.py"])
    assert [path.name for path in files] == ["a.py"]
    assert "__pycache__" not in {part for p in files for part in p.parts}


def test_a_source_package_named_dist_is_not_a_build_artifact(tmp_path):
    # `dist/` and `build/` are skipped as packaging output — unless they
    # are real Python packages (repro/dist is one). The __init__.py is
    # the discriminator.
    engine = _project(tmp_path, {
        "src/repro/dist/__init__.py": "",
        "src/repro/dist/leases.py": "VALUE = 1\n",
        "dist/repro-0.1-py3-none-any/junk.py": "VALUE = 2\n",
        "build/lib/other.py": "VALUE = 3\n",
    })
    files = engine.collect_files(["src", "dist", "build"])
    names = sorted(path.name for path in files)
    assert names == ["__init__.py", "leases.py"]


def test_findings_come_out_sorted_by_path_then_line(tmp_path):
    engine = _project(tmp_path, {
        "src/repro/sim/b.py": "import time\nNOW = time.time()\n",
        "src/repro/sim/a.py": (
            "import time\nX = time.time()\nY = time.time()\n"
        ),
    })
    report = engine.run()
    assert [(f.path, f.line) for f in report.findings] == [
        ("src/repro/sim/a.py", 2),
        ("src/repro/sim/a.py", 3),
        ("src/repro/sim/b.py", 2),
    ]
    assert report.rules_run == 11
