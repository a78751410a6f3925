"""Smoke-run every experiment at a tiny scale.

These verify that each registered experiment executes end to end and
emits the expected table structure; they use a scale far below quick()
so the whole module stays fast.
"""

import io

import pytest

from repro.experiments import Scale, all_experiments, get_experiment
from repro.experiments.runner import default_experiment_ids, run_experiments

TINY = Scale(trials=1, blocks_per_run=40, sweep_density=0.25)

FAST_IDS = [
    "tab-seek", "tab-single", "tab-multi-nopf", "tab-inter-sync",
    "ablation-selector", "ablation-streaming",
]


@pytest.mark.parametrize("experiment_id", FAST_IDS)
def test_experiment_runs_and_renders(experiment_id):
    result = get_experiment(experiment_id).run(TINY)
    assert result.tables
    text = result.render()
    assert experiment_id in text
    for table in result.tables:
        assert table.rows, f"{experiment_id} produced an empty table"


@pytest.mark.slow
def test_fig_32a_shape():
    result = get_experiment("fig-3.2a").run(TINY)
    table = result.tables[0]
    assert table.headers[0] == "N"
    n_values = [row[0] for row in table.rows]
    assert n_values[0] == 1 and n_values[-1] == 30
    # Intra-run on one disk must dominate (be slowest) everywhere.
    for row in table.rows:
        _n, intra1, intra5, inter5 = row
        assert intra1 > intra5
        assert inter5 < intra1


@pytest.mark.slow
def test_fig_33_cpu_monotone_for_sync():
    result = get_experiment("fig-3.3").run(TINY)
    table = result.tables[0]
    sync_col = [row[2] for row in table.rows]  # inter-run synchronized
    assert sync_col == sorted(sync_col)


@pytest.mark.slow
def test_fig_35a_structure():
    result = get_experiment("fig-3.5a").run(TINY)
    table = result.tables[0]
    assert table.headers[0] == "cache"
    # Cells below the minimum cache are dashes.
    first_row = table.rows[0]
    assert first_row[0] == 25
    assert first_row[3] == "-"  # N=5 needs 125 blocks
    # Success ratio should be non-decreasing in cache size for N=10.
    n10_sr = [row[6] for row in table.rows if row[6] != "-"]
    assert all(isinstance(v, float) for v in n10_sr)


@pytest.mark.slow
def test_tab_urn_measured_concurrency():
    result = get_experiment("tab-urn").run(TINY)
    measured = result.tables[1]
    for row in measured.rows:
        assert 1.0 <= row[3] <= 10.0  # measured concurrency in range


@pytest.mark.slow
def test_ablation_depletion_model_diverges_on_sorted_data():
    result = get_experiment("ablation-depletion-model").run(TINY)
    rows = {row[0]: row for row in result.tables[0].rows}
    random_time = rows["random model"][1]
    uniform_time = rows["real merge: uniform"][1]
    nearly_sorted_time = rows["real merge: nearly-sorted"][1]
    assert uniform_time == pytest.approx(random_time, rel=0.2)
    assert nearly_sorted_time > random_time * 1.5


def test_default_experiment_ids_exclude_aliases():
    ids = default_experiment_ids()
    assert "fig-3.5a" in ids
    assert "fig-3.6a" not in ids


def test_default_ids_can_exclude_ablations():
    ids = default_experiment_ids(include_ablations=False)
    assert all(not i.startswith("ablation-") for i in ids)


def test_run_experiments_streams_reports():
    # The report stream holds no wall-clock time, so reruns match.
    streams = []
    for _ in range(2):
        buffer = io.StringIO()
        results = run_experiments(["tab-seek"], TINY, stream=buffer)
        assert len(results) == 1
        streams.append(buffer.getvalue())
    assert "tab-seek" in streams[0]
    assert streams[0] == streams[1]


def test_all_experiments_have_unique_runners_except_aliases():
    seen = {}
    for experiment in all_experiments():
        if experiment.description.startswith("(alias of"):
            continue
        assert experiment.runner not in seen, (
            f"{experiment.experiment_id} shares a runner with "
            f"{seen.get(experiment.runner)}"
        )
        seen[experiment.runner] = experiment.experiment_id
