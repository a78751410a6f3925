"""Documentation correctness: the quickstart and tutorial snippets run,

every documented experiment id exists, and the examples at least
compile.  Docs that silently rot are worse than no docs."""

import ast
import py_compile
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]


def test_readme_quickstart_snippet_runs():
    """The exact code shown in README's Quickstart section."""
    from repro import simulate_merge, PrefetchStrategy

    result = simulate_merge(
        num_runs=25, num_disks=5,
        strategy=PrefetchStrategy.INTER_RUN, prefetch_depth=10,
        cache_capacity=800, trials=1, blocks_per_run=100,
    )
    assert result.total_time_s.mean > 0
    assert 0 <= result.success_ratio.mean <= 1


def test_tutorial_sweep_snippet_runs(tmp_path):
    """The parallel-sweep walkthrough from docs/TUTORIAL.md section 6
    (shrunk to smoke-test size)."""
    from repro.sweep import ResultStore, SweepEngine, SweepSpec

    spec = SweepSpec(
        name="depth-sweep",
        base={"num_runs": 4, "strategy": "intra-run", "blocks_per_run": 30},
        grid={"num_disks": [1, 2], "prefetch_depth": [2, 3]},
        trials=1,
    )
    engine = SweepEngine(store=ResultStore(tmp_path), workers=1, retries=1)
    result = engine.run_spec(spec)
    assert len(result.cells) == 4
    assert all(cell.total_time_s.mean > 0 for cell in result.cells)
    rerun = engine.run_spec(spec)
    assert rerun.stats.cache_hit_ratio == 1.0


def test_tutorial_kernel_snippet_runs():
    """The sim-kernel walkthrough from docs/TUTORIAL.md section 9."""
    from repro.sim import Simulator

    sim = Simulator()
    ready = sim.event()

    def producer():
        yield sim.timeout(1.5)
        ready.succeed("block 0")

    def consumer(log):
        item = yield ready
        log.append((sim.now, item))
        yield sim.timeout(2.0)
        log.append((sim.now, "merged"))

    log = []
    sim.process(producer())
    sim.process(consumer(log))
    sim.run(until=10.0)
    assert log == [(1.5, "block 0"), (3.5, "merged")]


def test_tutorial_analysis_imports_exist():
    from repro.analysis import (  # noqa: F401
        estimate_sort_time_s,
        expected_concurrency,
        fan_in_for_cache,
        inter_run_sync_total_s,
        lower_bound_total_s,
        plan_passes,
        predict,
    )


def _documented_experiment_ids(text: str) -> set[str]:
    pattern = re.compile(r"\b((?:fig|tab|ablation|ext)-[0-9a-z.\-]+)")
    return {match.rstrip(".") for match in pattern.findall(text)}


@pytest.mark.parametrize("doc", ["DESIGN.md", "EXPERIMENTS.md", "README.md"])
def test_documented_experiment_ids_exist(doc):
    from repro.experiments import all_experiments

    known = {e.experiment_id for e in all_experiments()}
    # Figure ids like fig-3.2 appear without a letter in prose; accept
    # any documented id that is a known id or a prefix of one.
    text = (REPO / doc).read_text()
    for documented in _documented_experiment_ids(text):
        if ".." in documented:  # range notation like fig-3.6a..c
            documented = documented.split("..")[0]
        ok = documented in known or any(
            experiment.startswith(documented) for experiment in known
        )
        assert ok, f"{doc} mentions unknown experiment {documented!r}"


def test_all_examples_compile():
    examples = sorted((REPO / "examples").glob("*.py"))
    assert len(examples) >= 3, "the deliverable requires >= 3 examples"
    for path in examples:
        py_compile.compile(str(path), doraise=True)


def test_all_examples_have_main_guard():
    for path in sorted((REPO / "examples").glob("*.py")):
        tree = ast.parse(path.read_text())
        has_main = any(
            isinstance(node, ast.FunctionDef) and node.name == "main"
            for node in tree.body
        )
        assert has_main, f"{path.name} lacks a main() function"
        assert '__name__ == "__main__"' in path.read_text()


def test_readme_cli_commands_exist():
    """Every `python -m repro <cmd>` the README shows must parse."""
    from repro.cli import _build_parser

    parser = _build_parser()
    subparsers = next(
        action for action in parser._actions
        if hasattr(action, "choices") and action.choices
    )
    known = set(subparsers.choices)
    text = (REPO / "README.md").read_text()
    for match in re.findall(r"python -m repro ([a-z\-]+)", text):
        assert match in known, f"README shows unknown command {match!r}"


def test_design_inventory_modules_exist():
    """Every module path DESIGN.md's inventory names must import."""
    import importlib

    text = (REPO / "DESIGN.md").read_text()
    for name in re.findall(r"`(repro(?:\.[a-z_]+)+)`", text):
        module_name = name
        attribute = None
        try:
            importlib.import_module(module_name)
            continue
        except ModuleNotFoundError:
            module_name, _, attribute = name.rpartition(".")
        module = importlib.import_module(module_name)
        assert hasattr(module, attribute), f"DESIGN.md names missing {name}"


def test_design_layer_diagram_is_the_generated_graph():
    """DESIGN.md's ``dot`` block is `repro lint src --graph dot`."""
    from repro.lint.config import LintConfig
    from repro.lint.engine import LintEngine
    from repro.lint.reporters import render_dot

    config = LintConfig()
    generated = render_dot(LintEngine(config, REPO).build_model(["src"]), config)
    text = (REPO / "DESIGN.md").read_text()
    embedded = re.search(r"```dot\n(.*?)```", text, re.DOTALL).group(1)
    assert embedded.strip() == generated.strip(), (
        "DESIGN.md's layer diagram is stale: re-embed the output of "
        "`python -m repro lint src --graph dot`"
    )
