"""RPR003: the cache-key schema cross-check, on fixtures and the real tree.

The acceptance-critical case is ``test_new_field_on_the_real_config``:
it copies the *actual* ``core/parameters.py``, adds one field the way a
future contributor would, and proves the rule fails until the field is
inventoried in ``sweep/keys.py``.
"""

import pytest

from lint_helpers import FIXTURES, REPO_ROOT
from repro.lint.config import LintConfig
from repro.lint.registry import get_rule

RULE_ID = "RPR003"


def _fixture_config(config_fixture, keys_fixture):
    return LintConfig(
        config_module=f"tests/lint/fixtures/{config_fixture}",
        keys_module=f"tests/lint/fixtures/{keys_fixture}",
    )


def _run(config, root=REPO_ROOT):
    rule = get_rule(RULE_ID)
    return sorted(rule.check([], config, root))


def _line_of(fixture, needle):
    for number, line in enumerate(
        (FIXTURES / fixture).read_text(encoding="utf-8").splitlines(), start=1
    ):
        if needle in line:
            return number
    raise AssertionError(f"{needle!r} not found in {fixture}")


def test_synchronised_fixture_pair_is_clean():
    assert _run(
        _fixture_config("rpr003_config_clean.py", "rpr003_keys_clean.py")
    ) == []


def test_uninventoried_config_field_fires():
    findings = _run(
        _fixture_config("rpr003_config_drift.py", "rpr003_keys_clean.py")
    )
    assert len(findings) == 1
    finding = findings[0]
    assert finding.rule == RULE_ID
    assert finding.path == "tests/lint/fixtures/rpr003_config_drift.py"
    assert finding.line == _line_of(
        "rpr003_config_drift.py", "write_caching: bool"
    )
    assert "field 'write_caching' is not accounted for" in finding.message
    assert "KNOWN_CONFIG_FIELDS" in finding.message
    assert "KEY_EXCLUDED_FIELDS" in finding.message


def test_stale_and_contradictory_inventory_entries_fire():
    findings = _run(
        _fixture_config("rpr003_config_clean.py", "rpr003_keys_drift.py")
    )
    messages = [f.message for f in findings]
    assert len(findings) == 2
    assert all(f.path == "tests/lint/fixtures/rpr003_keys_drift.py"
               for f in findings)
    assert any(
        "lists 'retired_field', which is not a SimulationConfig field"
        in message for message in messages
    )
    assert any(
        "'num_disks' appears in both" in message for message in messages
    )


def test_missing_inventory_declaration_fires():
    # Pointing keys-module at a file with no tuples: the invariant is
    # unenforceable and the rule must say so rather than pass silently.
    findings = _run(
        _fixture_config("rpr003_config_clean.py", "rpr003_config_clean.py")
    )
    assert len(findings) == 1
    assert "does not declare KNOWN_CONFIG_FIELDS" in findings[0].message


def test_unparsable_config_module_fires():
    config = LintConfig(config_module="tests/lint/no_such_module.py")
    findings = _run(config)
    assert len(findings) == 1
    assert "cannot parse config module" in findings[0].message


def test_real_tree_is_in_sync():
    # Default config against the actual repo: parameters.py and keys.py
    # must agree (this is what `repro lint` enforces on every run).
    assert _run(LintConfig()) == []


def test_new_field_on_the_real_config(tmp_path):
    # The acceptance scenario: add a field to the real SimulationConfig
    # without touching keys.py and the rule must fail the lint.
    params_source = (
        REPO_ROOT / "src/repro/core/parameters.py"
    ).read_text(encoding="utf-8")
    anchor = 'kernel: str = "batch"'
    assert anchor in params_source
    (tmp_path / "parameters.py").write_text(
        params_source.replace(
            anchor, anchor + "\n    added_by_test: bool = False"
        ),
        encoding="utf-8",
    )
    (tmp_path / "keys.py").write_text(
        (REPO_ROOT / "src/repro/sweep/keys.py").read_text(encoding="utf-8"),
        encoding="utf-8",
    )
    config = LintConfig(config_module="parameters.py", keys_module="keys.py")
    findings = _run(config, root=tmp_path)
    assert [f.rule for f in findings] == [RULE_ID]
    assert "field 'added_by_test' is not accounted for" in findings[0].message
