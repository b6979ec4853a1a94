"""Mid-execution adaptive re-optimization: mechanics and bit-identity.

The load-bearing property: whatever the threshold, the number of re-plans or
the intermediates reused, adaptive execution returns *byte-identical* results
— including static mode (``replan_threshold=None``), which executes the
optimizer's original plan to completion.  For order-insensitive outputs
(``COUNT``/``MIN``/``MAX``) the result is additionally byte-identical to the
plain executor running the static plan; order-sensitive outputs (float
``SUM``/``AVG``) agree with the plain executor up to float accumulation
order, which the canonical row ordering makes plan-independent.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cardinality.estimator import CardinalityEstimator
from repro.cardinality.gamma import Gamma
from repro.executor.executor import Executor
from repro.executor.materialization import needs_canonical_order
from repro.optimizer.optimizer import Optimizer
from repro.plans.join_tree import plans_identical
from repro.relalg import DictEncodedArray
from repro.reopt.adaptive import (
    AdaptiveExecutor,
    AdaptiveSettings,
    deviation_factor,
    execute_adaptively,
)
from repro.sql.builder import QueryBuilder
from repro.storage.catalog import Database
from repro.storage.table import Column, Table, TableSchema
from repro.workloads.ott import generate_ott_database, make_ott_query, make_ott_workload
from repro.workloads.tpch import generate_tpch_database
from repro.workloads.tpch_queries import make_tpch_workload
from repro.workloads.tpcds import generate_tpcds_database, make_tpcds_workload


def assert_relations_equal(left, right, exact: bool = True) -> None:
    """Compare two decoded result relations column by column."""
    assert set(left) == set(right)
    assert left.num_rows == right.num_rows
    for name in left:
        a, b = left[name], right[name]
        assert not isinstance(a, DictEncodedArray) and not isinstance(b, DictEncodedArray)
        a, b = np.asarray(a), np.asarray(b)
        if exact or a.dtype.kind not in "fc":
            assert a.dtype == b.dtype, name
            if a.dtype.kind in "fc":
                # NaN (empty-input SUM/AVG) must compare equal to itself.
                assert np.array_equal(a, b, equal_nan=True), name
            else:
                assert np.array_equal(a, b), name
        else:
            assert np.allclose(a, b, rtol=1e-9, equal_nan=True), name


def run_modes(db, query, optimizer=None, threshold=2.0):
    """Static plan via the plain executor, adaptive, and adaptive-static."""
    optimizer = optimizer if optimizer is not None else Optimizer(db)
    static_plan = optimizer.optimize(query)
    plain = Executor(db, cost_units=optimizer.settings.cost_units).execute_plan(
        static_plan, query
    )
    adaptive = AdaptiveExecutor(
        db, optimizer=optimizer, settings=AdaptiveSettings(replan_threshold=threshold)
    ).execute(query, plan=static_plan, gamma=Gamma())
    adaptive_static = AdaptiveExecutor(
        db, optimizer=optimizer, settings=AdaptiveSettings(replan_threshold=None)
    ).execute(query, plan=static_plan, gamma=Gamma())
    return static_plan, plain, adaptive, adaptive_static


class TestAdaptiveMechanics:
    def test_ott_explosion_triggers_replan_and_reuse(self, ott_db):
        query = make_ott_query(ott_db, [0, 0, 0, 1], name="ott_adaptive")
        result = execute_adaptively(ott_db, query)
        assert result.replans >= 1
        assert result.plan_switches >= 1
        assert result.intermediates_reused >= 1
        assert result.plan_changed
        # The replanned rounds carry the adaptive bookkeeping.
        adaptive_rounds = result.report.rounds[1:]
        assert adaptive_rounds
        for record in adaptive_rounds:
            assert record.trigger_join_set is not None
            assert record.plan_switched is not None
            assert record.exact_gamma_entries >= 1
        # The triggering checkpoints deviated by at least the threshold.
        triggers = [c for c in result.checkpoints if c.triggered_replan]
        assert triggers
        assert all(c.deviation >= 2.0 for c in triggers)

    def test_well_estimated_star_never_replans(self, make_rng):
        """The control for the explosion above: unique-key dimension joins,
        which the estimator gets right, never reach the default 2x threshold."""
        rng = make_rng(3)
        db = Database("star")
        fact = {"a": rng.integers(0, 20, size=20_000)}
        fact.update({f"k{i}": rng.integers(0, 500, size=20_000) for i in (1, 2, 3)})
        db.create_table(
            Table(TableSchema("f", tuple(Column(name, "int") for name in fact)), fact)
        )
        builder = QueryBuilder("star").table("f").filter("f", "a", "=", 0)
        for i in (1, 2, 3):
            db.create_table(
                Table(TableSchema(f"d{i}", (Column("k", "int"),)), {"k": rng.permutation(500)})
            )
            builder.table(f"d{i}").join("f", f"k{i}", f"d{i}", "k")
        db.analyze()
        query = builder.aggregate("count", output_name="n").build()
        result = execute_adaptively(db, query)
        assert len(result.checkpoints) > 1
        assert result.replans == 0
        assert_relations_equal(result.execution.columns, Executor(db).execute(query).columns)

    def test_exact_gamma_entries_for_every_pipeline(self, ott_db):
        query = make_ott_query(ott_db, [0, 0, 0, 1], name="ott_gamma")
        result = execute_adaptively(ott_db, query)
        for checkpoint in result.checkpoints:
            assert result.gamma.is_exact(checkpoint.join_set)
            assert result.gamma.get(checkpoint.join_set) == checkpoint.actual_rows
        # Singletons (scan outputs) are recorded too.
        for alias in query.aliases:
            assert result.gamma.is_exact({alias})

    def test_static_mode_never_replans(self, ott_db, ott_query):
        settings = AdaptiveSettings(replan_threshold=None)
        result = AdaptiveExecutor(ott_db, settings=settings).execute(ott_query)
        assert result.replans == 0
        assert not result.plan_changed
        assert plans_identical(result.final_plan, result.original_plan)

    def test_max_replans_bounds_optimizer_invocations(self, ott_db):
        query = make_ott_query(ott_db, [0, 0, 0, 1], name="ott_capped")
        settings = AdaptiveSettings(replan_threshold=1.01, max_replans=1)
        result = AdaptiveExecutor(ott_db, settings=settings).execute(query)
        assert result.replans == 1
        assert result.report.num_plans_generated == 2

    def test_actual_cardinalities_cover_all_checkpoints(self, ott_db):
        query = make_ott_query(ott_db, [0, 0, 0, 1], name="ott_cards")
        result = execute_adaptively(ott_db, query)
        cards = result.actual_cardinalities()
        for checkpoint in result.checkpoints:
            assert cards[checkpoint.join_set] == checkpoint.actual_rows

    def test_deviation_factor(self):
        assert deviation_factor(100.0, 100) == 1.0
        assert deviation_factor(10.0, 1000) == 100.0
        assert deviation_factor(1000.0, 10) == 100.0
        # Sub-row estimates and empty results are floored, not infinite.
        assert deviation_factor(0.0, 0) == 1.0
        assert deviation_factor(0.001, 5) == 5.0

    def test_needs_canonical_order(self, ott_db):
        count_only = make_ott_query(ott_db, [0, 0, 0, 1], name="count_only")
        assert not needs_canonical_order(ott_db, count_only)
        projection = (
            QueryBuilder("proj").table("r1").filter("r1", "a", "=", 0)
            .select("r1", "a").build()
        )
        assert needs_canonical_order(ott_db, projection)

    def test_single_table_query(self, ott_db):
        query = (
            QueryBuilder("single").table("r1").filter("r1", "a", "=", 0)
            .aggregate("count", output_name="n").build()
        )
        result = execute_adaptively(ott_db, query)
        assert result.replans == 0
        plain = Executor(ott_db).execute(query)
        assert_relations_equal(result.execution.columns, plain.columns)
        assert result.gamma.is_exact({"r1"})

    def test_warm_sampled_gamma_is_upgraded_not_trusted(self, ott_db):
        query = make_ott_query(ott_db, [0, 0, 0, 1], name="ott_warm")
        gamma = Gamma()
        gamma.record({"r1", "r2"}, 3.0)  # a (wrong) sampled entry
        result = execute_adaptively(ott_db, query, gamma=gamma)
        if frozenset({"r1", "r2"}) in result.gamma.exact_join_sets():
            # Executed: the exact observation replaced the sampled guess.
            assert result.gamma.get({"r1", "r2"}) != 3.0


class TestBitIdentityOtt:
    """OTT output is COUNT-only: every mode must agree byte for byte."""

    def test_all_modes_bit_identical(self, ott_db):
        for query in make_ott_workload(ott_db, num_tables=4, num_queries=4, seed=3):
            _, plain, adaptive, adaptive_static = run_modes(ott_db, query)
            assert_relations_equal(adaptive.execution.columns, adaptive_static.execution.columns)
            assert_relations_equal(adaptive.execution.columns, plain.columns)
            assert adaptive.execution.num_rows == plain.num_rows

    def test_tight_threshold_still_bit_identical(self, ott_db):
        query = make_ott_query(ott_db, [0, 0, 0, 1], name="ott_tight")
        _, plain, adaptive, _ = run_modes(ott_db, query, threshold=1.01)
        assert adaptive.replans >= 1
        assert_relations_equal(adaptive.execution.columns, plain.columns)


class TestBitIdentityTpch:
    """TPC-H queries mix float SUM/AVG aggregates with joins."""

    @pytest.fixture(scope="class")
    def tpch_db(self):
        return generate_tpch_database(
            scale_factor=0.002, zipf_z=1.0, seed=3, create_samples=False
        )

    @pytest.fixture(scope="class")
    def tpch_queries(self, tpch_db):
        workload = make_tpch_workload(tpch_db, numbers=[3, 5, 10, 14], seed=3)
        return [instances[0] for instances in workload.values()]

    def test_adaptive_matches_adaptive_static_exactly(self, tpch_db, tpch_queries):
        for query in tpch_queries:
            _, plain, adaptive, adaptive_static = run_modes(
                tpch_db, query, threshold=1.05
            )
            # The guarantee: byte-identical across adaptive modes, whatever
            # join order the re-plans picked.
            assert_relations_equal(
                adaptive.execution.columns, adaptive_static.execution.columns
            )
            # Against the plain executor: identical rows and non-float
            # columns; float aggregates agree up to accumulation order.
            assert_relations_equal(adaptive.execution.columns, plain.columns, exact=False)

    def test_some_query_actually_replans(self, tpch_db, tpch_queries):
        replans = 0
        for query in tpch_queries:
            result = AdaptiveExecutor(
                tpch_db, settings=AdaptiveSettings(replan_threshold=1.05)
            ).execute(query)
            replans += result.replans
        assert replans >= 1, "expected the skewed TPC-H instances to deviate somewhere"


class TestBitIdentityTpcds:
    @pytest.fixture(scope="class")
    def tpcds_db(self):
        return generate_tpcds_database(scale=0.05, seed=2, create_samples=False)

    def test_adaptive_matches_adaptive_static_exactly(self, tpcds_db):
        queries = [q for q in make_tpcds_workload(tpcds_db, seed=2) if q.num_joins >= 2]
        for query in queries[:4]:
            _, plain, adaptive, adaptive_static = run_modes(
                tpcds_db, query, threshold=1.05
            )
            assert_relations_equal(
                adaptive.execution.columns, adaptive_static.execution.columns
            )
            assert_relations_equal(adaptive.execution.columns, plain.columns, exact=False)


class TestEstimatorExtrapolation:
    def test_exact_anchor_extrapolates_to_supersets(self, ott_db):
        query = make_ott_query(ott_db, [0, 0, 0, 0], name="ott_extrapolate")
        gamma = Gamma()
        plain = CardinalityEstimator(ott_db, query, gamma=Gamma())
        baseline = plain.joinset_cardinality({"r1", "r2", "r3"})

        gamma.record_exact({"r1", "r2"}, 5000.0)
        anchored = CardinalityEstimator(ott_db, query, gamma=gamma)
        estimate = anchored.joinset_cardinality({"r1", "r2", "r3"})
        # anchored = 5000 * base(r3) * sel(r2.b = r3.b) — far above the AVI
        # product that multiplied the r1⋈r2 mis-estimate in.
        expected = (
            5000.0
            * anchored.base_cardinality("r3")
            * anchored.join_predicate_selectivity(query.join_predicates[1])
        )
        assert estimate == pytest.approx(expected)
        assert estimate > baseline

    def test_sampled_entries_do_not_extrapolate(self, ott_db):
        query = make_ott_query(ott_db, [0, 0, 0, 0], name="ott_sampled")
        gamma = Gamma()
        gamma.record({"r1", "r2"}, 5000.0)  # sampled: exact-set override only
        estimator = CardinalityEstimator(ott_db, query, gamma=gamma)
        baseline = CardinalityEstimator(ott_db, query, gamma=Gamma())
        assert estimator.joinset_cardinality({"r1", "r2"}) == 5000.0
        assert estimator.joinset_cardinality({"r1", "r2", "r3"}) == pytest.approx(
            baseline.joinset_cardinality({"r1", "r2", "r3"})
        )

    def test_disjoint_anchor_and_exact_rest(self, ott_db):
        query = make_ott_query(ott_db, [0, 0, 0, 0], name="ott_two_anchors")
        gamma = Gamma()
        gamma.record_exact({"r1", "r2"}, 700.0)
        gamma.record_exact({"r3", "r4"}, 900.0)
        estimator = CardinalityEstimator(ott_db, query, gamma=gamma)
        estimate = estimator.joinset_cardinality({"r1", "r2", "r3", "r4"})
        expected = (
            700.0 * 900.0
            * estimator.join_predicate_selectivity(query.join_predicates[1])
        )
        assert estimate == pytest.approx(expected)
