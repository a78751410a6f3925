"""The ``repro lint`` CLI: exit codes, formats, baseline workflow.

The first test is the acceptance gate for the whole subsystem: linting
``src`` with the *committed* baseline must exit 0 on the current tree.
"""

import argparse
import json
import os
import subprocess
import sys

from lint_helpers import REPO_ROOT
from repro.lint.baseline import TODO_REASON, Baseline
from repro.lint.cli import add_lint_arguments, run_lint

_CLEAN = "VALUE = 1\n"
_VIOLATION = (
    "import time\n"
    "\n"
    "def poll():\n"
    "    return time.time()\n"
)


def _args(argv):
    parser = argparse.ArgumentParser()
    add_lint_arguments(parser)
    return parser.parse_args(argv)


def _lint(argv):
    return run_lint(_args(argv))


def _tmp_project(tmp_path, source=_VIOLATION):
    module = tmp_path / "src" / "repro" / "sim" / "clock.py"
    module.parent.mkdir(parents=True)
    module.write_text(source, encoding="utf-8")
    return tmp_path


# -- the real tree -----------------------------------------------------------

def test_src_with_committed_baseline_exits_zero(capsys):
    code = _lint(["src", "--root", str(REPO_ROOT)])
    out = capsys.readouterr().out
    assert code == 0, f"lint over src must be clean, got:\n{out}"
    assert out.strip().endswith("lint: ok")


def test_json_format_is_the_machine_readable_contract(capsys):
    code = _lint(["src", "--root", str(REPO_ROOT), "--format", "json",
                  "--stats"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["version"] == 1
    assert payload["exit_code"] == 0
    assert payload["new_findings"] == []
    assert payload["stale_baseline_entries"] == []
    assert payload["baseline"] == "lint-baseline.json"
    assert payload["stats"]["files_scanned"] > 20
    assert payload["stats"]["rules_run"] == 11


def test_no_baseline_exposes_exactly_the_grandfathered_findings(capsys):
    _lint(["src", "--root", str(REPO_ROOT), "--format", "json"])
    with_baseline = json.loads(capsys.readouterr().out)
    code = _lint(["src", "--root", str(REPO_ROOT), "--format", "json",
                  "--no-baseline"])
    without = json.loads(capsys.readouterr().out)
    grandfathered = with_baseline["grandfathered"]
    assert without["new_findings"] == grandfathered
    assert code == (1 if grandfathered else 0)


def test_coordinator_blocking_chains_stay_visible(capsys):
    # The coordinator's listener lives in repro.netutil's JsonService;
    # its journal and store writes must still be reached from an async
    # def in coordinator.py, or RPR011 would go blind to them.
    _lint(["src", "--root", str(REPO_ROOT), "--format", "json",
           "--no-baseline"])
    findings = json.loads(capsys.readouterr().out)["new_findings"]
    chains = [
        f["message"] for f in findings
        if f["rule"] == "RPR011" and f["path"] == "src/repro/dist/coordinator.py"
    ]
    assert len(chains) == 7
    # Besides the five startup chains under Coordinator.start, the
    # request path reaches the journal append and the store write.
    served = [
        m for m in chains
        if m.startswith("async def Coordinator.")
        and not m.startswith("async def Coordinator.start ")
    ]
    assert any("-> CampaignManifest._append " in m for m in served)
    assert any("-> atomic_write_json " in m for m in served)


def test_stats_flag_appends_the_summary(capsys):
    _lint(["src", "--root", str(REPO_ROOT), "--stats"])
    out = capsys.readouterr().out
    assert "lint stats:" in out
    assert "file(s) scanned" in out


def test_module_entrypoint_matches_make_lint():
    # `make lint` runs exactly this; one subprocess proves the argparse
    # wiring end to end.
    env = dict(os.environ, PYTHONPATH="src")
    result = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "src", "--stats"],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "lint: ok" in result.stdout


# -- the baseline workflow on a synthetic project ----------------------------

def test_new_finding_exits_one_then_write_baseline_grandfathers(
    tmp_path, capsys
):
    root = _tmp_project(tmp_path)
    assert _lint(["--root", str(root)]) == 1
    out = capsys.readouterr().out
    assert "RPR001" in out and "new finding(s)" in out

    assert _lint(["--root", str(root), "--write-baseline"]) == 0
    capsys.readouterr()
    baseline = Baseline.load(root / "lint-baseline.json")
    assert [entry.rule for entry in baseline.entries] == ["RPR001"]
    assert baseline.entries[0].reason == TODO_REASON

    assert _lint(["--root", str(root)]) == 0
    assert "grandfathered" in capsys.readouterr().out


def test_fixing_the_finding_reports_the_stale_entry(tmp_path, capsys):
    root = _tmp_project(tmp_path)
    _lint(["--root", str(root), "--write-baseline"])
    capsys.readouterr()
    (root / "src" / "repro" / "sim" / "clock.py").write_text(
        _CLEAN, encoding="utf-8"
    )
    assert _lint(["--root", str(root)]) == 0
    out = capsys.readouterr().out
    assert "stale baseline entry" in out and "remove it" in out


def test_write_baseline_preserves_existing_reasons(tmp_path, capsys):
    root = _tmp_project(tmp_path)
    _lint(["--root", str(root), "--write-baseline"])
    capsys.readouterr()
    path = root / "lint-baseline.json"
    reviewed = json.loads(path.read_text(encoding="utf-8"))
    reviewed["entries"][0]["reason"] = "deliberate: legacy clock shim"
    path.write_text(json.dumps(reviewed), encoding="utf-8")
    _lint(["--root", str(root), "--write-baseline"])
    capsys.readouterr()
    rebuilt = Baseline.load(path)
    assert rebuilt.entries[0].reason == "deliberate: legacy clock shim"


def test_prune_baseline_removes_stale_entries_and_is_idempotent(
    tmp_path, capsys
):
    root = _tmp_project(tmp_path)
    _lint(["--root", str(root), "--write-baseline"])
    capsys.readouterr()
    # Fixing the violation strands its baseline entry.
    (root / "src" / "repro" / "sim" / "clock.py").write_text(
        _CLEAN, encoding="utf-8"
    )
    assert _lint(["--root", str(root), "--prune-baseline"]) == 0
    out = capsys.readouterr().out
    assert "baseline pruned: 1 stale entr(y/ies) removed, 0 kept" in out
    assert Baseline.load(root / "lint-baseline.json").entries == []
    # Pruning the already-clean baseline is a no-op.
    assert _lint(["--root", str(root), "--prune-baseline"]) == 0
    assert "0 stale entr(y/ies) removed, 0 kept" in capsys.readouterr().out
    # And the ordinary run stops nagging about staleness.
    assert _lint(["--root", str(root)]) == 0
    assert "stale" not in capsys.readouterr().out


def test_prune_baseline_keeps_entries_that_still_fire(tmp_path, capsys):
    root = _tmp_project(tmp_path)
    _lint(["--root", str(root), "--write-baseline"])
    capsys.readouterr()
    assert _lint(["--root", str(root), "--prune-baseline"]) == 0
    assert "0 stale entr(y/ies) removed, 1 kept" in capsys.readouterr().out


def test_sarif_format_carries_rule_metadata_and_suppressions(capsys):
    code = _lint(["src", "--root", str(REPO_ROOT), "--format", "sarif"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["version"] == "2.1.0"
    run = payload["runs"][0]
    rules = run["tool"]["driver"]["rules"]
    assert [rule["id"] for rule in rules] == [
        f"RPR{index:03d}" for index in range(1, 14) if index not in (3, 9)
    ]
    assert all(rule["fullDescription"]["text"] for rule in rules)
    # The committed tree is clean, so every result is grandfathered and
    # must carry the SARIF suppression block naming the baseline.
    assert run["results"], "expected the baselined findings as results"
    for result in run["results"]:
        suppression = result["suppressions"][0]
        assert suppression["kind"] == "external"
        assert "lint-baseline.json" in suppression["justification"]


def test_graph_dot_renders_the_layered_import_graph(capsys):
    assert _lint(["src", "--root", str(REPO_ROOT), "--graph", "dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph repro_layers {")
    for layer in ("model", "engine", "services", "cli"):
        assert f'label="{layer}"' in out
    # A known downward edge: the serve layer reads the sweep cache.
    assert '"repro.serve" -> "repro.sweep"' in out


# -- error handling ----------------------------------------------------------

def test_nonexistent_lint_path_exits_two(tmp_path, capsys):
    _tmp_project(tmp_path)
    assert _lint(["no/such/dir", "--root", str(tmp_path)]) == 2
    assert "does not exist" in capsys.readouterr().err
