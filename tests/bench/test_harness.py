"""Tests for the suite runner, the figure table and its reporting."""

import dataclasses
from unittest import mock

import pytest

from repro.bench import experiments
from repro.bench.experiments import (
    FIGURES,
    NON_EMPTY,
    Outcome,
    Suite,
    bound,
    contradicted_joins,
    cost_ratio,
    example2_multidimensional_histograms,
    figure3_sn_curve,
    per_round_cost,
    plan_count,
    render_markdown,
    row_count,
    run_figures,
    run_query_suite,
    run_suite,
)
from repro.cardinality.gamma import Gamma
from repro.executor.executor import ExecutionResult, NodeExecution
from repro.optimizer.profiles import profile_settings
from repro.workloads.ott import generate_ott_database, make_ott_workload

FIGURE = {figure.name: figure for figure in FIGURES}


@pytest.fixture(scope="module")
def small_ott_db():
    return generate_ott_database(
        num_tables=4, rows_per_table=1200, rows_per_value=30, seed=17, sampling_ratio=0.25
    )


def _small(name, **changes):
    """The figure over two queries of its suites, with ``changes`` applied to each."""
    figure = FIGURE[name]
    return dataclasses.replace(figure, suites=tuple(
        dataclasses.replace(suite, queries=2, **changes) for suite in figure.suites
    ))


def _outcome(columns, rows):
    figure = dataclasses.replace(FIGURE["figure4b"], name="figX", title="demo", columns=columns)
    return Outcome(figure, rows, None)


class TestReporting:
    def test_table_rendering(self):
        text = _outcome(("a", "b"), [{"a": 1, "b": 0.123456}, {"a": "text", "b": None}]).to_text()
        assert "figX" in text and "demo" in text
        assert "0.12" in text

    def test_boolean_and_large_float_formatting(self):
        text = _outcome(("flag", "big"), [{"flag": True, "big": 123456.789}]).to_text()
        assert "yes" in text
        assert "1.23e+05" in text

    def test_markdown_states_claim_tolerance_and_failure(self):
        figure = FIGURE["figure4b"]
        text = render_markdown([Outcome(figure, [], "not 21 rows")])
        assert "0 of 1 figures pass" in text
        assert figure.claim in text and "- Tolerance: 21 rows" in text
        assert "- Verdict: FAIL (not 21 rows)" in text


class TestHarness:
    def test_run_query_suite_records(self, small_ott_db):
        queries = make_ott_workload(small_ott_db, num_tables=4, num_queries=3, seed=2)
        rows = run_query_suite(small_ott_db, queries)
        assert len(rows) == 3
        for row in rows:
            assert row["plans_generated"] >= 2
            assert row["original_sim_cost"] > 0
            assert row["reoptimized_sim_cost"] > 0
            assert row["original_work_rows"] > 0 and row["reoptimized_work_rows"] > 0
            assert row["round_sim_costs"] == []

    def test_intermediate_plan_execution(self, small_ott_db):
        queries = make_ott_workload(small_ott_db, num_tables=4, num_queries=1, seed=2)
        [row] = run_query_suite(small_ott_db, queries, execute_intermediate_plans=True)
        assert row["round_sim_costs"]
        assert row["round_sim_costs"][0] == pytest.approx(row["original_sim_cost"], rel=1e-6)

    def test_calibrated_suite_keeps_its_profile(self):
        suite = Suite("ott", seed=3, queries=1, profile="system_b", calibrated=True)
        with mock.patch.object(experiments, "run_query_suite", return_value=[]) as run:
            run_suite(suite)
        settings = run.call_args.kwargs["optimizer_settings"]
        base = profile_settings("system_b")
        assert settings == dataclasses.replace(base, cost_units=settings.cost_units)
        assert settings.cost_units != base.cost_units

    def test_records_count_dp_masks_every_round(self, small_ott_db):
        queries = make_ott_workload(small_ott_db, num_tables=4, num_queries=2, seed=2)
        for row in run_query_suite(small_ott_db, queries):
            assert type(row["round1_masks"]) is int and type(row["max_later_masks"]) is int
            assert row["round1_masks"] == 10  # the connected subsets of a 4-chain
            assert row["max_later_masks"] < row["round1_masks"]

    def test_contradicted_joins_count_executed_joins_off_by_more_than_10x(self):
        def node(relations, kind, actual):
            return NodeExecution(frozenset(relations), kind, actual, 0.0, None)

        gamma = Gamma()
        for relations, rows in [("a", 0.0), ("ab", 0.0), ("abc", 100.0), ("abcd", 50.0)]:
            gamma.record(relations, rows)
        execution = ExecutionResult(columns=None, num_rows=0, node_executions=[
            node("a", "scan:seq_scan", 500),  # not a join
            node("ab", "join:hash_join", 11),  # 11 vs a floor of 1
            node("abc", "join:hash_join", 1000),  # exactly 10x
            node("abcd", "join:hash_join", 4),  # 12.5x
            node("abcde", "join:hash_join", 7),  # no Γ entry
        ])
        assert contradicted_joins(execution, gamma) == 2


class TestChecks:
    """Every check family fails on a table that violates it and passes one that does not."""

    @pytest.mark.parametrize("check, good, bad", [
        (row_count(2), [{}, {}], [{}]),
        (NON_EMPTY, [{}], []),
        (cost_ratio("reoptimized_sim_cost", 2.0, "original_sim_cost", 1e-6),
         [{"query": "q1", "reoptimized_sim_cost": 20.0, "original_sim_cost": 10.0}],
         [{"query": "q1", "reoptimized_sim_cost": 20.1, "original_sim_cost": 10.0}]),
        (plan_count("plans_generated", 2, 13),
         [{"query": "q1", "plans_generated": 12}],
         [{"query": "q1", "plans_generated": 13}]),
        (plan_count("plans_generated", 2, 13),
         [{"query": "q1", "plans_generated": 2}],
         [{"query": "q1", "plans_generated": 1}]),
        (per_round_cost(1.05),
         [{"query": "q1", "simulated_cost": 100.0}, {"query": "q1", "simulated_cost": 105.0}],
         [{"query": "q1", "simulated_cost": 100.0}, {"query": "q1", "simulated_cost": 106.0}]),
        (bound("rounds", "over", "under"),
         [{"query": "q1", "rounds": 5, "over": 2, "under": 3.0}],
         [{"query": "q1", "rounds": 6, "over": 2, "under": 3.0}]),
    ], ids=["rows", "some_rows", "cost_ratio", "plan_count_high", "plan_count_low",
            "per_round_cost", "bound"])
    def test_family_fails_on_a_violating_table(self, check, good, bad):
        assert check.failure(good) is None
        assert check.failure(bad)

    def test_a_failing_row_is_named(self):
        check = plan_count("plans_generated", 1, 10)
        rows = [{"query": "q1", "plans_generated": 3}, {"query": "q7", "plans_generated": 10}]
        assert check.failure(rows) == "q7: not 1 <= plans_generated < 10"

    def test_every_figure_states_a_tolerance(self):
        assert len(FIGURES) == 24
        assert all(figure.claim and figure.tolerance for figure in FIGURES)


class TestFigureTable:
    def test_figure3_rows(self):
        rows = figure3_sn_curve()
        assert rows[0]["N"] == 1
        assert rows[-1]["N"] == 1000

    def test_example2_rows(self):
        assert len(example2_multidimensional_histograms()) == 2

    def test_ott_running_time_small(self):
        [outcome] = run_figures([_small("figure10a", seed=3)])
        assert len(outcome.rows) == 2
        assert outcome.failure.startswith("not 10 rows")

    def test_ott_num_plans_small(self):
        [outcome] = run_figures([_small("figure16", seed=3)])
        assert all(row["plans_generated"] >= 2 for row in outcome.rows)

    def test_appendix_b_small(self):
        [outcome] = run_figures([_small("appendix_b", seed=3)])
        assert len(outcome.rows) == 2

    def test_figures_sharing_a_calibrated_suite_read_one_calibration(self):
        shown, counted = _small("figure10b"), _small("figure16", calibrated=True)
        assert shown.suites == counted.suites
        with mock.patch.object(
            experiments, "calibrate_cost_units", wraps=experiments.calibrate_cost_units
        ) as calibrate:
            shown_outcome, counted_outcome = run_figures([shown, counted])
        assert calibrate.call_count == 1
        assert [row["plans_generated"] for row in shown_outcome.rows] == [
            row["plans_generated"] for row in counted_outcome.rows
        ]
