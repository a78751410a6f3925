"""Golden-fixture tests: every rule id, firing and non-firing.

Each fixture under ``fixtures/`` carries ``# expect:`` markers on its
violating lines; the test asserts the rule reports *exactly* those
lines (rule id, line number, severity, path) with messages containing
the marker text — and nothing else, which is the non-firing half: the
"good" sections of every fixture are unmarked and must stay silent.
"""

import pytest

from lint_helpers import (
    FIXTURES,
    expected_markers,
    load_fixture,
    module_from_source,
    run_model_rule,
    run_rule,
)
from repro.lint.config import LintConfig
from repro.lint.engine import LintEngine
from repro.lint.findings import Severity
from repro.lint.registry import all_rules, get_rule, path_matches

#: (rule id, fixture file, fabricated repo path, expected severity).
GOLDEN_CASES = [
    ("RPR001", "rpr001_determinism.py",
     "src/repro/sim/lint_fixture.py", Severity.ERROR),
    ("RPR002", "rpr002_slots.py",
     "src/repro/sim/batch.py", Severity.ERROR),
    ("RPR004", "rpr004_serialization.py",
     "src/repro/bench/lint_fixture.py", Severity.ERROR),
    ("RPR005", "rpr005_ordering.py",
     "src/repro/disks/lint_fixture.py", Severity.ERROR),
    ("RPR006", "rpr006_excepts.py",
     "src/repro/sweep/lint_fixture.py", Severity.WARNING),
    ("RPR007", "rpr007_defaults.py",
     "src/repro/mergesort/lint_fixture.py", Severity.ERROR),
    ("RPR008", "rpr008_print.py",
     "src/repro/analysis/lint_fixture.py", Severity.WARNING),
]


@pytest.mark.parametrize(
    "rule_id,fixture,relpath,severity",
    GOLDEN_CASES,
    ids=[case[0] for case in GOLDEN_CASES],
)
def test_rule_reports_exactly_the_marked_lines(
    rule_id, fixture, relpath, severity
):
    module = load_fixture(fixture, relpath)
    expected = expected_markers(module)
    assert expected, f"{fixture} must mark at least one violation"
    findings = run_rule(rule_id, module)
    assert [f.line for f in findings] == [line for line, _ in expected]
    for finding, (line, substring) in zip(findings, expected):
        assert finding.rule == rule_id
        assert finding.line == line
        assert finding.path == relpath
        assert finding.severity is severity
        assert substring in finding.message


#: Model-scope concurrency rules: (rule id, fixture, fabricated path).
#: RPR010 has its own fixture *package* and suite in test_layering.py.
MODEL_GOLDEN_CASES = [
    ("RPR011", "rpr011_async.py", "src/repro/serve/lint_fixture.py"),
    ("RPR012", "rpr012_locks.py", "src/repro/realio/lint_fixture.py"),
    ("RPR013", "rpr013_tasks.py", "src/repro/serve/lint_fixture.py"),
]


@pytest.mark.parametrize(
    "rule_id,fixture,relpath",
    MODEL_GOLDEN_CASES,
    ids=[case[0] for case in MODEL_GOLDEN_CASES],
)
def test_model_rule_reports_exactly_the_marked_lines(
    rule_id, fixture, relpath
):
    module = load_fixture(fixture, relpath)
    expected = expected_markers(module)
    assert expected, f"{fixture} must mark at least one violation"
    findings = run_model_rule(rule_id, [module])
    assert [f.line for f in findings] == [line for line, _ in expected]
    for finding, (line, substring) in zip(findings, expected):
        assert finding.rule == rule_id
        assert finding.line == line
        assert finding.path == relpath
        assert finding.severity is Severity.ERROR
        assert substring in finding.message


#: The same fixtures fabricated outside the rules' configured packages.
MODEL_OUT_OF_SCOPE = [
    ("RPR011", "rpr011_async.py", "src/repro/analysis/lint_fixture.py"),
    ("RPR012", "rpr012_locks.py", "src/repro/sim/lint_fixture.py"),
    ("RPR013", "rpr013_tasks.py", "src/repro/analysis/lint_fixture.py"),
]


@pytest.mark.parametrize(
    "rule_id,fixture,relpath",
    MODEL_OUT_OF_SCOPE,
    ids=[case[0] for case in MODEL_OUT_OF_SCOPE],
)
def test_model_rule_is_silent_outside_its_modules(rule_id, fixture, relpath):
    module = load_fixture(fixture, relpath)
    assert run_model_rule(rule_id, [module]) == []


@pytest.mark.parametrize(
    "rule_id,fixture,relpath",
    MODEL_GOLDEN_CASES,
    ids=[case[0] for case in MODEL_GOLDEN_CASES],
)
def test_inline_disable_suppresses_model_findings(
    tmp_path, rule_id, fixture, relpath
):
    # Append a disable comment to every marked line and run the full
    # engine: the suppression must travel from file text to model-rule
    # findings, which land after the per-file pass.
    lines = (FIXTURES / fixture).read_text(encoding="utf-8").splitlines()
    marked = [i for i, line in enumerate(lines) if "# expect:" in line]
    assert marked
    for index in marked:
        lines[index] += f"  # repro-lint: disable={rule_id}"
    target = tmp_path / relpath
    target.parent.mkdir(parents=True)
    target.write_text("\n".join(lines) + "\n", encoding="utf-8")
    report = LintEngine(LintConfig(), tmp_path).run()
    assert [f for f in report.findings if f.rule == rule_id] == []
    assert report.suppressed == len(marked)


def test_transitive_blocking_chain_crosses_module_boundaries():
    # The helper chain lives two modules away from the coroutine; the
    # finding must land on the call line *inside* the coroutine and
    # name the full chain to the sink.
    handler = module_from_source(
        "from repro.serve.storage import persist\n"
        "async def handle(payload):\n"
        "    return persist(payload)\n",
        "src/repro/serve/handlers.py",
    )
    storage = module_from_source(
        "from repro.serve.diskio import flush\n"
        "def persist(payload):\n"
        "    return flush(payload)\n",
        "src/repro/serve/storage.py",
    )
    diskio = module_from_source(
        "def flush(payload):\n"
        "    with open('state.json', 'w') as handle:\n"
        "        handle.write(payload)\n",
        "src/repro/serve/diskio.py",
    )
    findings = run_model_rule("RPR011", [handler, storage, diskio])
    assert len(findings) == 1
    finding = findings[0]
    assert finding.path == "src/repro/serve/handlers.py"
    assert finding.line == 3
    assert "handle -> persist -> flush" in finding.message
    assert "(repro.serve.diskio)" in finding.message


def test_transitive_blocking_fingerprint_ignores_the_sink_line():
    # The baseline matches by fingerprint, which excludes line numbers:
    # an edit above the sink must not turn a grandfathered finding into
    # a "new" plus a "stale" one.
    handler = module_from_source(
        "from repro.serve.diskio import flush\n"
        "async def handle(payload):\n"
        "    return flush(payload)\n",
        "src/repro/serve/handlers.py",
    )

    def diskio(padding: int):
        return module_from_source(
            "\n" * padding
            + "def flush(payload):\n"
            "    with open('state.json', 'w') as handle:\n"
            "        handle.write(payload)\n",
            "src/repro/serve/diskio.py",
        )

    before = run_model_rule("RPR011", [handler, diskio(0)])
    after = run_model_rule("RPR011", [handler, diskio(5)])
    assert len(before) == len(after) == 1
    assert before[0].fingerprint == after[0].fingerprint


#: Scoped rules go silent when the same fixture lives outside their
#: configured modules.
OUT_OF_SCOPE_CASES = [
    ("RPR001", "rpr001_determinism.py", "src/repro/analysis/tools.py"),
    ("RPR001", "rpr001_determinism.py", "src/repro/sim/random_streams.py"),
    ("RPR002", "rpr002_slots.py", "src/repro/sim/engine.py"),
    ("RPR005", "rpr005_ordering.py", "src/repro/sweep/lint_fixture.py"),
    ("RPR008", "rpr008_print.py", "src/repro/cli.py"),
]


@pytest.mark.parametrize(
    "rule_id,fixture,relpath",
    OUT_OF_SCOPE_CASES,
    ids=[f"{c[0]}-{c[2].rsplit('/', 1)[1]}" for c in OUT_OF_SCOPE_CASES],
)
def test_scoped_rule_is_silent_outside_its_modules(rule_id, fixture, relpath):
    assert run_rule(rule_id, load_fixture(fixture, relpath)) == []


def test_broad_except_needs_retry_scope_but_bare_except_does_not():
    # Outside the broad-except modules the catch-all stops firing while
    # the universal checks (bare except, swallowed failure) remain.
    module = load_fixture("rpr006_excepts.py", "src/repro/analysis/tools.py")
    messages = [f.message for f in run_rule("RPR006", module)]
    assert len(messages) == 2
    assert any("bare except" in message for message in messages)
    assert any("pass-only body" in message for message in messages)
    assert not any("worker/retry" in message for message in messages)


def test_registry_covers_all_thirteen_rules_with_stable_ids():
    # RPR003 (cache-key-schema) and RPR009 (deprecated-overrides) are
    # retired; their ids are not reused.
    rules = all_rules()
    assert [rule.rule_id for rule in rules] == [
        f"RPR{index:03d}" for index in range(1, 14) if index not in (3, 9)
    ]
    assert all(rule.rationale for rule in rules)
    assert {rule.scope for rule in rules} == {"file", "model"}
    for rule_id in ("RPR010", "RPR011", "RPR012", "RPR013"):
        assert get_rule(rule_id).scope == "model"


def test_unknown_rule_id_is_a_clear_error():
    with pytest.raises(ValueError, match="unknown lint rule"):
        get_rule("RPR999")


def test_path_matching_is_component_wise():
    prefixes = ["repro/sim", "repro/sim/batch.py"]
    assert path_matches("repro/sim/engine.py", prefixes)
    assert path_matches("repro/sim/batch.py", ["repro/sim/batch.py"])
    # a directory prefix must not match a sibling sharing the spelling
    assert not path_matches("repro/simulation/engine.py", ["repro/sim"])
    assert not path_matches("repro/sim/batch_extra.py", ["repro/sim/batch.py"])


def test_unseeded_random_outside_simulation_modules_is_allowed():
    source = "import random\nstream = random.Random()\n"
    module = module_from_source(source, "src/repro/analysis/tools.py")
    assert run_rule("RPR001", module) == []
    in_scope = module_from_source(source, "src/repro/disks/drive.py")
    assert [f.line for f in run_rule("RPR001", in_scope)] == [2]
