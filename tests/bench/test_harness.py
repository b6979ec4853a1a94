"""Tests for the benchmark harness and reporting (integration level)."""

import pytest

from repro.bench.experiments import (
    appendix_b_bounds,
    example2_multidimensional_histograms,
    figure3_sn_curve,
    figure10_11_ott_running_time,
    figure16_ott_num_plans,
)
from repro.bench.harness import (
    aggregate_by_template,
    calibrated_settings,
    mean,
    run_query_suite,
)
from repro.bench.reporting import ExperimentResult
from repro.workloads.ott import generate_ott_database, make_ott_workload


@pytest.fixture(scope="module")
def small_ott_db():
    return generate_ott_database(
        num_tables=4, rows_per_table=1200, rows_per_value=30, seed=17, sampling_ratio=0.25
    )


class TestReporting:
    def test_table_rendering(self):
        result = ExperimentResult("figX", "demo", columns=["a", "b"])
        result.add_row(a=1, b=0.123456)
        result.add_row(a="text", b=None)
        text = result.to_text()
        assert "figX" in text and "demo" in text
        assert "0.12" in text
        assert result.column_values("a") == [1, "text"]

    def test_max_rows_truncation(self):
        result = ExperimentResult("figX", "demo", columns=["a"])
        for index in range(10):
            result.add_row(a=index)
        text = result.to_text(max_rows=3)
        assert "more rows" in text

    def test_boolean_and_large_float_formatting(self):
        result = ExperimentResult("figX", "demo", columns=["flag", "big"])
        result.add_row(flag=True, big=123456.789)
        assert "yes" in result.to_text()
        assert "1.23e+05" in result.to_text()


class TestHarness:
    def test_run_query_suite_records(self, small_ott_db):
        queries = make_ott_workload(small_ott_db, num_tables=4, num_queries=3, seed=2)
        records = run_query_suite(small_ott_db, queries)
        assert len(records) == 3
        for record in records:
            assert record.plans_generated >= 2
            assert record.original_simulated_cost > 0
            assert record.reoptimized_simulated_cost > 0
            assert record.total_with_reoptimization >= record.reoptimized_wall_seconds

    def test_intermediate_plan_execution(self, small_ott_db):
        queries = make_ott_workload(small_ott_db, num_tables=4, num_queries=1, seed=2)
        records = run_query_suite(small_ott_db, queries, execute_intermediate_plans=True)
        assert records[0].per_round_simulated_cost
        assert records[0].per_round_simulated_cost[0] == pytest.approx(
            records[0].original_simulated_cost, rel=1e-6
        )

    def test_aggregate_by_template_and_mean(self):
        assert mean([]) == 0.0
        assert mean([1.0, 3.0]) == 2.0

    def test_calibrated_settings_changes_units(self, small_ott_db):
        settings = calibrated_settings(small_ott_db)
        defaults = set()
        calibrated = set(settings.cost_units.as_dict().values())
        from repro.cost.units import DEFAULT_COST_UNITS

        defaults = set(DEFAULT_COST_UNITS.as_dict().values())
        assert calibrated != defaults


class TestExperimentDrivers:
    def test_figure3_driver(self):
        result = figure3_sn_curve(max_n=200, step=50)
        assert result.rows[0]["N"] == 1
        assert result.rows[-1]["N"] == 200

    def test_example2_driver(self):
        result = example2_multidimensional_histograms(rows=2000, distinct_values=50)
        assert len(result.rows) == 2

    def test_ott_driver_small(self):
        result = figure10_11_ott_running_time(
            joins=4, num_queries=2, rows_per_table=1200, sampling_ratio=0.25, seed=3
        )
        assert len(result.rows) == 2

    def test_ott_num_plans_driver_small(self):
        result = figure16_ott_num_plans(
            joins=4, num_queries=2, rows_per_table=1200, sampling_ratio=0.25, seed=3
        )
        assert all(row["plans_generated"] >= 2 for row in result.rows)

    def test_appendix_b_driver_small(self):
        result = appendix_b_bounds(
            num_queries=2, num_tables=4, rows_per_table=1200, sampling_ratio=0.25, seed=3
        )
        assert len(result.rows) == 2
