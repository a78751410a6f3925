"""The cell runner shared by the inline sweep engine and the dist worker."""

import pytest

from repro.sweep.keys import config_to_dict
from repro.sweep.spec import SweepSpec
from repro.sweep.worker import (
    cell_groups,
    execute_batch,
    execute_cell,
    execute_job,
)

SPEC = SweepSpec(
    name="cell-runner",
    base={"num_runs": 3, "blocks_per_run": 20},
    grid={"num_disks": [1, 2]},
    trials=3,
    base_seed=5,
)


def test_cell_groups_split_adjacent_runs_of_one_cell():
    jobs = SPEC.jobs()
    pending = [job for job in jobs if job.index != 1]  # one cache hit
    groups = cell_groups(pending, lambda job: job.cell)
    assert [[job.index for job in group] for group in groups] == [
        [0, 2], [3, 4, 5]
    ]


def test_a_cell_runs_as_one_batch(monkeypatch):
    calls = []

    def spy(payload):
        calls.append(payload["trials"])
        return execute_batch(payload)

    monkeypatch.setattr("repro.sweep.worker.execute_batch", spy)
    config = config_to_dict(SPEC.jobs()[0].config)
    outcomes, retries = execute_cell(config, [0, 1, 2])
    assert (calls, retries) == ([[0, 1, 2]], 0)
    assert [o["metrics"] for o in outcomes] == [
        execute_job({"config": config, "trial": t})["metrics"]
        for t in (0, 1, 2)
    ]


def test_a_failed_batch_falls_back_trial_by_trial_with_retries(monkeypatch):
    def broken_batch(payload):
        raise RuntimeError("batch aborted")

    calls = []

    def flaky(payload):
        calls.append(payload["trial"])
        if payload["trial"] == 1:
            raise RuntimeError("trial 1 always fails")
        return execute_job(payload)

    monkeypatch.setattr("repro.sweep.worker.execute_batch", broken_batch)
    monkeypatch.setattr("repro.sweep.worker.execute_job", flaky)
    config = config_to_dict(SPEC.jobs()[0].config)
    outcomes, retries = execute_cell(config, [0, 1, 2], attempts=3)
    assert calls == [0, 1, 1, 1, 2]
    # The failed batch, then trial 1's two retries.
    assert retries == 3
    assert isinstance(outcomes[1], RuntimeError)
    assert "metrics" in outcomes[0] and "metrics" in outcomes[2]


@pytest.mark.parametrize("attempts", [1, 2])
def test_a_single_trial_skips_the_batch(monkeypatch, attempts):
    def no_batch(payload):
        raise AssertionError("a single trial went to execute_batch")

    def failing(payload):
        raise ValueError("boom")

    monkeypatch.setattr("repro.sweep.worker.execute_batch", no_batch)
    monkeypatch.setattr("repro.sweep.worker.execute_job", failing)
    outcomes, retries = execute_cell({}, [0], attempts=attempts)
    assert isinstance(outcomes[0], ValueError)
    assert retries == attempts - 1
