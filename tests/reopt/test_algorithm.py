"""Tests for Algorithm 1 (the re-optimization loop) and its reports."""

import pytest

from repro.executor.executor import Executor
from repro.optimizer.settings import OptimizerSettings
from repro.plans.join_tree import JoinTree, plans_identical
from repro.reopt.algorithm import ReoptimizationSettings, Reoptimizer, reoptimize
from repro.sql.builder import QueryBuilder
from repro.workloads.ott import generate_ott_database, make_ott_query, make_ott_workload


@pytest.fixture(scope="module")
def db():
    return generate_ott_database(
        num_tables=5, rows_per_table=2500, rows_per_value=40, seed=13, sampling_ratio=0.2
    )


class TestTermination:
    def test_loop_converges_and_is_reported(self, db):
        result = reoptimize(db, make_ott_query(db, [0, 0, 0, 0, 1]))
        assert result.converged
        assert 2 <= result.rounds <= 20
        assert result.report.rounds[-1].transformation is not None

    def test_convergence_is_by_identity_or_coverage(self, db):
        result = reoptimize(db, make_ott_query(db, [0, 0, 0, 1, 0]))
        if result.converged and result.rounds >= 2:
            last = result.report.rounds[-1]
            repeated = any(
                plans_identical(last.plan, earlier.plan)
                for earlier in result.report.rounds[:-1]
            )
            # Either the final plan re-surfaced an earlier (fully validated)
            # plan, or its validation added nothing new to Γ (coverage).
            assert repeated or last.new_gamma_entries == 0

    def test_no_join_query_terminates_after_one_round(self, db):
        # A join-free plan has nothing to validate: Δ is empty, Γ cannot
        # grow, and the coverage rule stops the loop without a redundant
        # second optimizer call.
        query = (
            QueryBuilder("single").table("r1").filter("r1", "a", "=", 0)
            .aggregate("count", output_name="c").build()
        )
        result = reoptimize(db, query)
        assert result.rounds == 1
        assert result.converged
        assert not result.plan_changed

    def test_max_rounds_budget_respected(self, db):
        settings = ReoptimizationSettings(max_rounds=2)
        result = Reoptimizer(db, settings=settings).reoptimize(
            make_ott_query(db, [0, 0, 0, 0, 1])
        )
        assert result.rounds <= 2

    def test_single_round_budget_returns_the_original_plan(self, db):
        settings = ReoptimizationSettings(max_rounds=1)
        result = Reoptimizer(db, settings=settings).reoptimize(
            make_ott_query(db, [0, 0, 0, 0, 1])
        )
        # One round validates the original plan and the budget ends the loop;
        # with a single candidate the Section 5.4 fallback returns it.
        assert result.rounds == 1
        assert len(result.gamma) > 0
        assert plans_identical(result.final_plan, result.original_plan)

    def test_samples_created_on_demand(self):
        db = generate_ott_database(
            num_tables=3, rows_per_table=900, rows_per_value=30, seed=3, create_samples=False
        )
        assert db.samples is None
        result = reoptimize(db, make_ott_query(db, [0, 0, 1]))
        assert db.samples is not None
        assert result.rounds >= 2


class TestPlanQuality:
    def test_ott_final_plans_never_catastrophic(self, db):
        """The OTT headline: re-optimized plans avoid the huge intermediate result."""
        executor = Executor(db)
        queries = make_ott_workload(db, num_tables=5, num_queries=6, seed=3)
        for query in queries:
            result = reoptimize(db, query)
            original = executor.execute_plan(result.original_plan, query)
            final = executor.execute_plan(result.final_plan, query)
            assert final.simulated_cost <= original.simulated_cost * 1.3
            assert final.columns["result_rows"][0] == original.columns["result_rows"][0]

    def test_empty_join_detected_and_pushed_down(self, db):
        query = make_ott_query(db, [0, 0, 0, 0, 1])
        result = reoptimize(db, query)
        # Gamma ends up knowing the full query is empty.
        full = frozenset({"r1", "r2", "r3", "r4", "r5"})
        assert result.gamma.get(full) == 0.0
        # The final plan contains at least one validated-empty join below the top.
        final_tree = JoinTree.of(result.final_plan)
        empty_joins = [
            join_set for join_set in final_tree.join_set
            if result.gamma.get(join_set) == 0.0 and len(join_set) < 5
        ]
        assert empty_joins, "expected an empty join to be evaluated early"

    def test_reoptimization_skips_reexecution_when_plan_unchanged(self, db):
        query = (
            QueryBuilder("simple").table("r1").table("r2")
            .join("r1", "b", "r2", "b")
            .aggregate("count", output_name="c").build()
        )
        result = reoptimize(db, query)
        assert result.plan_changed == (not plans_identical(result.final_plan, result.original_plan))


class TestReports:
    def test_report_summary_fields(self, db):
        result = reoptimize(db, make_ott_query(db, [0, 1, 0, 0, 0]))
        summary = result.report.summary()
        assert summary["query"] == result.query.name
        assert summary["rounds"] == result.rounds
        assert isinstance(summary["transformations"], list)
        assert result.report.total_sampling_seconds >= 0.0

    def test_theorem2_holds_for_observed_chains(self, db):
        """At most one local transformation, and only as the last step."""
        for constants in ([0, 0, 0, 0, 1], [1, 0, 0, 0, 0], [0, 0, 1, 0, 0]):
            result = reoptimize(db, make_ott_query(db, constants))
            assert result.report.validates_theorem_2()

    def test_covered_join_sets_superset_of_final_plan(self, db):
        result = reoptimize(db, make_ott_query(db, [0, 0, 1, 0, 0]))
        final_tree = JoinTree.of(result.final_plan)
        assert final_tree.join_set <= result.report.covered_join_sets()

    def test_custom_optimizer_settings_are_used(self, db):
        settings = OptimizerSettings(allow_bushy=False)
        result = reoptimize(db, make_ott_query(db, [0, 0, 0, 0, 1]), optimizer_settings=settings)
        assert JoinTree.of(result.final_plan).is_left_deep()
