"""Tests for the automated reproduction audit."""

import functools

import pytest

from repro.cli import main
from repro.core.parameters import PrefetchStrategy, SimulationConfig
from repro.experiments import Scale, get_experiment
from repro.experiments import validation
from repro.experiments.validation import (
    FIGURE_CLAIMS,
    PAPER_EXPECTATIONS,
    Claim,
    Expectation,
    judge_claims,
    render_claim_verdicts,
    render_verdicts,
    validate,
)


def test_expectations_cover_the_papers_printed_values():
    labels = " ".join(e.label for e in PAPER_EXPECTATIONS)
    assert "357.2" in " ".join(str(e.paper_value) for e in PAPER_EXPECTATIONS)
    assert "no prefetch, k=25, 1 disk" in labels
    assert "sync inter-run" in labels
    assert "urn-game" in labels
    assert len(PAPER_EXPECTATIONS) >= 10


def test_every_expectation_has_positive_tolerance_and_source():
    for expectation in PAPER_EXPECTATIONS:
        assert 0 < expectation.tolerance < 0.5
        assert expectation.source
        assert expectation.paper_value > 0


def _tiny_expectation(paper_value, tolerance):
    return Expectation(
        label="tiny",
        paper_value=paper_value,
        tolerance=tolerance,
        config=SimulationConfig(
            num_runs=4, num_disks=2, strategy=PrefetchStrategy.NONE,
            blocks_per_run=30, trials=1,
        ),
        metric=lambda result: result.total_time_s.mean,
        source="test",
    )


def test_validate_measures_and_judges():
    # First find the true measured value, then build expectations
    # around it to exercise both verdicts.
    probe = validate([_tiny_expectation(1.0, 0.5)])[0]
    measured = probe.measured

    passing = validate([_tiny_expectation(measured, 0.05)])[0]
    assert passing.ok
    assert passing.relative_error < 0.001

    failing = validate([_tiny_expectation(measured * 2, 0.05)])[0]
    assert not failing.ok
    assert failing.relative_error == pytest.approx(0.5, abs=0.01)


def test_validate_scale_override_shrinks_runs():
    expectation = _tiny_expectation(1.0, 0.5)
    full = validate([expectation])[0]
    small = validate([expectation], blocks_per_run=10)[0]
    assert small.measured < full.measured


def test_render_verdicts_format():
    verdicts = validate([_tiny_expectation(1e9, 0.01)])
    text = render_verdicts(verdicts)
    assert "[FAIL]" in text
    assert "0/1 paper values reproduced" in text


def test_every_claim_names_a_registered_experiment_and_a_source():
    labels = [(claim.experiment_id, claim.label) for claim in FIGURE_CLAIMS]
    assert len(labels) == len(set(labels))
    for claim in FIGURE_CLAIMS:
        get_experiment(claim.experiment_id)
        assert claim.label and claim.source


@pytest.mark.parametrize(
    "experiment_id", sorted({claim.experiment_id for claim in FIGURE_CLAIMS})
)
def test_figure_claims_hold_at_quick_scale(experiment_id):
    claims = [c for c in FIGURE_CLAIMS if c.experiment_id == experiment_id]
    verdicts = judge_claims(claims, Scale.quick())
    assert all(v.ok for v in verdicts), render_claim_verdicts(verdicts)


def test_claims_share_one_run_and_errors_fail_only_their_claims(monkeypatch):
    looked_up = []

    def counting_get_experiment(experiment_id):
        looked_up.append(experiment_id)
        return get_experiment(experiment_id)

    monkeypatch.setattr(validation, "get_experiment", counting_get_experiment)
    verdicts = judge_claims(
        [
            Claim("tab-seek", "holds", lambda result, scale: True, "test"),
            Claim("tab-seek", "raises", lambda result, scale: 1 / 0, "test"),
            Claim("no-such-experiment", "unrunnable",
                  lambda result, scale: True, "test"),
        ],
        Scale.quick(),
    )
    assert [v.ok for v in verdicts] == [True, False, False]
    assert verdicts[0].error is None
    assert verdicts[1].error == "ZeroDivisionError: division by zero"
    assert verdicts[2].error.startswith("KeyError:")
    assert looked_up == ["tab-seek", "no-such-experiment"]


def test_cli_validate_prints_claim_verdicts_and_exits_1_on_a_fail(
    monkeypatch, capsys
):
    monkeypatch.setattr(
        validation, "validate",
        functools.partial(validate, (_tiny_expectation(1.0, 10.0),)),
    )
    # --blocks scales the claims' experiments as well as the values.
    holds = Claim("tab-seek", "a claim that holds",
                  lambda r, scale: scale.blocks_per_run == 20, "test")
    monkeypatch.setattr(validation, "FIGURE_CLAIMS", (holds,))
    assert main(["validate", "--blocks", "20"]) == 0
    out = capsys.readouterr().out
    assert "1/1 paper values reproduced" in out
    assert "[ok ] tab-seek" in out and "1/1 figure claims hold" in out

    fails = Claim("tab-seek", "a claim that fails", lambda r, s: False, "test")
    monkeypatch.setattr(validation, "FIGURE_CLAIMS", (holds, fails))
    assert main(["validate", "--blocks", "20"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] tab-seek                  a claim that fails" in out
    assert "1/2 figure claims hold" in out


def test_cli_paper_check_exits_1_when_a_closed_form_misses(monkeypatch, capsys):
    holds = validation.CLOSED_FORMS[0]
    misses = ("urn E(L) D=5", lambda: 5.0)  # the paper prints 2.51
    monkeypatch.setattr(validation, "CLOSED_FORMS", (holds, misses))
    assert main(["paper-check"]) == 1
    out = capsys.readouterr().out
    assert "[ok ] no prefetch k=25 D=1" in out
    assert "[FAIL] urn E(L) D=5" in out
    assert "1/2 analytical checks match" in out


def test_cli_selfcheck_exits_1_when_a_simulation_misses(monkeypatch, capsys):
    tiny = SimulationConfig(num_runs=4, num_disks=2, blocks_per_run=30, trials=1)
    monkeypatch.setattr(validation, "REDUCED_SCALE_CHECKS", (
        ("loose", tiny, 10.0),
        ("impossible", tiny, -1.0),  # no relative error is below zero
    ))
    assert main(["selfcheck"]) == 1
    out = capsys.readouterr().out
    assert "[ok ] loose" in out and "[FAIL] impossible" in out
    assert "1/2 simulation checks within tolerance" in out


@pytest.mark.slow
def test_two_headline_values_reproduce_at_full_scale():
    """A fast subset of `repro validate`: the two cheapest paper values."""
    subset = [
        e for e in PAPER_EXPECTATIONS
        if e.label in (
            "intra-run N=10, k=25, 1 disk",
            "sync inter-run N=10, k=25, 5 disks",
        )
    ]
    assert len(subset) == 2
    verdicts = validate(subset)
    assert all(v.ok for v in verdicts), render_verdicts(verdicts)
