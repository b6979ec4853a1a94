"""Tests for Algorithm 1 (the re-optimization loop) and its reports."""

from unittest import mock

import pytest

from repro.cardinality.gamma import Gamma
from repro.executor.executor import Executor
from repro.optimizer.optimizer import Optimizer
from repro.optimizer.settings import OptimizerSettings
from repro.plans.join_tree import JoinTree, plans_identical
from repro.plans.nodes import ScanMethod
from repro.reopt import algorithm as algorithm_module
from repro.reopt.algorithm import Reoptimizer, reoptimize
from repro.sql.builder import QueryBuilder
from repro.workloads.ott import generate_ott_database, make_ott_query, make_ott_workload
from repro.workloads.tpch import generate_tpch_database
from repro.workloads.tpch_queries import make_tpch_workload


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
        assert len(result.report.transformation_chain) == result.rounds - 1

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

    def test_max_rounds_budget_respected(self, db, monkeypatch):
        monkeypatch.setattr(algorithm_module, "MAX_ROUNDS", 2)
        result = Reoptimizer(db).reoptimize(make_ott_query(db, [0, 0, 0, 0, 1]))
        assert result.rounds <= 2

    def test_single_round_budget_returns_the_original_plan(self, db, monkeypatch):
        monkeypatch.setattr(algorithm_module, "MAX_ROUNDS", 1)
        result = Reoptimizer(db).reoptimize(make_ott_query(db, [0, 0, 0, 0, 1]))
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


class TestFallbackCost:
    def test_empty_gamma_reproduces_the_optimizers_cost(self):
        """Section 5.4's re-costing under an empty Γ is the optimizer's own
        estimate, index scans included: an index scan's matched rows are not
        its output rows, so it is re-costed from its own estimate."""
        tpch = generate_tpch_database(scale_factor=0.01, seed=1)
        indexed = (
            QueryBuilder("indexed").table("orders", "o").table("lineitem", "l")
            .join("o", "o_orderkey", "l", "l_orderkey")
            .filter("o", "o_custkey", "=", 7)
            .filter("o", "o_orderpriority", "=", "1-URGENT")
            .aggregate("count", output_name="n").build()
        )
        reoptimizer = Reoptimizer(tpch)
        plan = reoptimizer.optimizer.optimize(indexed)
        assert any(getattr(node, "method", None) is ScanMethod.INDEX_SCAN for node in plan.walk())
        queries = [indexed] + [
            query for queries in make_tpch_workload(tpch).values() for query in queries
        ]
        for query in queries:
            plan = reoptimizer.optimizer.optimize(query)
            assert reoptimizer._sampled_cost(plan, Gamma()) == pytest.approx(
                plan.estimated_cost, rel=1e-9
            ), query.name


class TestReports:
    def test_report_summary_fields(self, db):
        result = reoptimize(db, make_ott_query(db, [0, 1, 0, 0, 0]))
        report = result.report
        assert report.query_name == result.query.name
        assert report.num_plans_generated == result.rounds == len(report.rounds)
        assert isinstance(report.transformation_chain, list)
        assert all(record.sampling_seconds >= 0.0 for record in report.rounds)

    def test_transformations_are_classified_when_read_not_per_round(self, db):
        from repro.reopt import report as report_module

        with mock.patch.object(
            report_module, "classify_transformation",
            wraps=report_module.classify_transformation,
        ) as classify:
            result = reoptimize(db, make_ott_query(db, [0, 0, 0, 0, 1]))
            assert result.rounds >= 2
            classify.assert_not_called()
            chain = result.report.transformation_chain
        assert classify.call_count == len(chain) == result.rounds - 1

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
        optimizer = Optimizer(db, OptimizerSettings(allow_bushy=False))
        result = Reoptimizer(db, optimizer=optimizer).reoptimize(
            make_ott_query(db, [0, 0, 0, 0, 1])
        )
        assert JoinTree.of(result.final_plan).is_left_deep()
