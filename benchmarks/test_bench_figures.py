"""The paper scorecard as tests: one case per entry of ``FIGURES``.

The scorecard runs once per module, each distinct suite once.  Every case
prints its figure's table (visible with ``-s``) and fails with its checks'
message.  ``python -m repro.bench.experiments`` prints the same tables and
writes REPRODUCTION.md.
"""

from unittest import mock

import pytest

from repro.bench import experiments
from repro.bench.experiments import FIGURES, run_figures, run_query_suite
from repro.optimizer.profiles import profile_settings

SUITES = {suite for figure in FIGURES for suite in figure.suites}


@pytest.fixture(scope="module")
def scorecard():
    """Every figure's outcome, and (settings, rows) of every suite run behind them."""
    runs = []

    def run_and_keep(*args, **kwargs):
        rows = run_query_suite(*args, **kwargs)
        runs.append((kwargs["optimizer_settings"], rows))
        return rows

    with mock.patch.object(experiments, "run_query_suite", run_and_keep):
        outcomes = {outcome.figure.name: outcome for outcome in run_figures()}
    return outcomes, runs


@pytest.mark.parametrize("figure", FIGURES, ids=lambda figure: figure.name)
def test_figure(scorecard, figure):
    outcome = scorecard[0][figure.name]
    print()
    print(outcome.to_text())
    assert outcome.failure is None, outcome.failure
    blank = [column for row in outcome.rows for column in figure.columns if row[column] is None]
    assert blank == [], f"cells with no value in columns {sorted(set(blank))}"


def test_each_suite_runs_once(scorecard):
    assert len(scorecard[1]) == len(SUITES) <= 15


@pytest.mark.parametrize("shown, counted", [("figure4b", "figure5"), ("figure7b", "figure8")])
def test_calibrated_figures_read_one_calibration(scorecard, shown, counted):
    outcomes, runs = scorecard
    calibrated = [rows for settings, rows in runs
                  if settings != profile_settings(settings.profile)]
    assert len(calibrated) == sum(suite.calibrated for suite in SUITES)
    shown_rows = outcomes[shown].rows
    [rows] = [
        rows for rows in calibrated
        if [(row["query"], row["reoptimized_sim_cost"]) for row in rows]
        == [(row["query"], row["reoptimized_sim_cost"]) for row in shown_rows]
    ]
    assert [row["plans_with_calibration"] for row in outcomes[counted].rows] == [
        row["plans_generated"] for row in rows
    ]
