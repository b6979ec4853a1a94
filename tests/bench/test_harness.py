"""Tests for the benchmark harness, the figure table and its reporting."""

import dataclasses
from unittest import mock

import pytest

from repro.bench import experiments
from repro.bench.experiments import (
    FIGURES,
    NON_EMPTY,
    Outcome,
    bound,
    cost_ratio,
    example2_multidimensional_histograms,
    figure3_sn_curve,
    per_round_cost,
    plan_count,
    render_markdown,
    row_count,
    run_figures,
)
from repro.bench.harness import calibrated_settings, contradicted_joins, run_query_suite
from repro.bench.reporting import ExperimentResult
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


class TestReporting:
    def test_table_rendering(self):
        result = ExperimentResult("figX", "demo", columns=["a", "b"])
        result.rows += [{"a": 1, "b": 0.123456}, {"a": "text", "b": None}]
        text = result.to_text()
        assert "figX" in text and "demo" in text
        assert "0.12" in text

    def test_boolean_and_large_float_formatting(self):
        result = ExperimentResult("figX", "demo", columns=["flag", "big"])
        result.rows.append({"flag": True, "big": 123456.789})
        assert "yes" in result.to_text()
        assert "1.23e+05" in result.to_text()

    def test_markdown_states_claim_tolerance_and_failure(self):
        figure = FIGURE["figure4b"]
        table = ExperimentResult("figure4b", figure.title, list(figure.columns))
        text = render_markdown([Outcome(figure, table, "not 21 rows")])
        assert "0 of 1 figures pass" in text
        assert figure.claim in text and "- Tolerance: 21 rows" in text
        assert "- Verdict: FAIL (not 21 rows)" in text


class TestHarness:
    def test_run_query_suite_records(self, small_ott_db):
        queries = make_ott_workload(small_ott_db, num_tables=4, num_queries=3, seed=2)
        records = run_query_suite(small_ott_db, queries)
        assert len(records) == 3
        for record in records:
            assert record.plans_generated >= 2
            assert record.original_simulated_cost > 0
            assert record.reoptimized_simulated_cost > 0
            assert record.original_work_rows > 0 and record.reoptimized_work_rows > 0

    def test_intermediate_plan_execution(self, small_ott_db):
        queries = make_ott_workload(small_ott_db, num_tables=4, num_queries=1, seed=2)
        records = run_query_suite(small_ott_db, queries, execute_intermediate_plans=True)
        assert records[0].per_round_simulated_cost
        assert records[0].per_round_simulated_cost[0] == pytest.approx(
            records[0].original_simulated_cost, rel=1e-6
        )

    def test_calibrated_settings_changes_units(self, small_ott_db):
        settings = calibrated_settings(small_ott_db)
        from repro.cost.units import DEFAULT_COST_UNITS

        calibrated = set(settings.cost_units.as_dict().values())
        assert calibrated != set(DEFAULT_COST_UNITS.as_dict().values())

    def test_calibrated_settings_keep_the_base_profile(self, small_ott_db):
        base = profile_settings("system_b")
        settings = calibrated_settings(small_ott_db, base)
        assert settings == dataclasses.replace(base, cost_units=settings.cost_units)
        assert settings.cost_units != base.cost_units

    def test_records_count_dp_masks_every_round(self, small_ott_db):
        queries = make_ott_workload(small_ott_db, num_tables=4, num_queries=2, seed=2)
        for record in run_query_suite(small_ott_db, queries):
            masks = record.dp_masks_expanded_per_round
            assert len(masks) == record.plans_generated
            assert all(type(count) is int for count in masks)
            assert masks[0] == 10  # the connected subsets of a 4-chain
            assert all(count < masks[0] for count in masks[1:])

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
        assert len(outcome.table.rows) == 2
        assert outcome.failure.startswith("not 10 rows")

    def test_ott_num_plans_small(self):
        [outcome] = run_figures([_small("figure16", seed=3)])
        assert all(row["plans_generated"] >= 2 for row in outcome.table.rows)

    def test_appendix_b_small(self):
        [outcome] = run_figures([_small("appendix_b", seed=3)])
        assert len(outcome.table.rows) == 2

    def test_figures_sharing_a_calibrated_suite_read_one_calibration(self):
        shown, counted = _small("figure10b"), _small("figure16", calibrated=True)
        assert shown.suites == counted.suites
        with mock.patch.object(
            experiments, "calibrated_settings", wraps=experiments.calibrated_settings
        ) as calibrate:
            shown_outcome, counted_outcome = run_figures([shown, counted])
        assert calibrate.call_count == 1
        assert [row["plans_generated"] for row in shown_outcome.table.rows] == [
            row["plans_generated"] for row in counted_outcome.table.rows
        ]
