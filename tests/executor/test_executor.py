"""Tests for the executor: correctness of operators and instrumentation."""

import numpy as np
import pytest

from repro.executor.executor import Executor
from repro.relalg import (
    Relation,
    filter_relation,
    group_aggregate,
    hash_join,
)
from repro.optimizer.optimizer import Optimizer
from repro.optimizer.settings import OptimizerSettings
from repro.plans.nodes import JoinMethod
from repro.sql.ast import Aggregate, ColumnRef, JoinPredicate, LocalPredicate
from repro.sql.builder import QueryBuilder
from repro.sql.parser import parse_query


class TestKernels:
    def test_apply_predicate_mask_all_operators(self):
        relation = Relation(
            {"t.a": np.array([1, 2, 3, 4, 5]), "t.b": np.array([10, 20, 30, 40, 50])}
        )
        cases = [
            (LocalPredicate("t", "a", "=", 3), [3]),
            (LocalPredicate("t", "a", "<>", 3), [1, 2, 4, 5]),
            (LocalPredicate("t", "a", "<", 3), [1, 2]),
            (LocalPredicate("t", "a", "<=", 3), [1, 2, 3]),
            (LocalPredicate("t", "a", ">", 3), [4, 5]),
            (LocalPredicate("t", "a", ">=", 3), [3, 4, 5]),
        ]
        for predicate, expected in cases:
            filtered = filter_relation(relation, "t", [predicate])
            assert list(filtered["t.a"]) == expected

    def test_equi_join_matches_reference(self):
        left = Relation({"l.k": np.array([1, 2, 2, 3]), "l.v": np.array([10, 20, 21, 30])})
        right = Relation({"r.k": np.array([2, 2, 3, 4]), "r.w": np.array([200, 201, 300, 400])})
        predicate = JoinPredicate("l", "k", "r", "k")
        result = hash_join(left, right, [predicate], frozenset({"l"}))
        pairs = sorted(zip(result["l.v"].tolist(), result["r.w"].tolist()))
        assert pairs == [(20, 200), (20, 201), (21, 200), (21, 201), (30, 300)]

    def test_equi_join_empty_input(self):
        left = Relation({"l.k": np.array([], dtype=np.int64)})
        right = Relation({"r.k": np.array([1, 2])})
        result = hash_join(left, right, [JoinPredicate("l", "k", "r", "k")], frozenset({"l"}))
        assert result.num_rows == 0

    def test_equi_join_without_predicates_is_cross_product(self):
        left = Relation({"l.a": np.array([1, 2])})
        right = Relation({"r.b": np.array([10, 20, 30])})
        result = hash_join(left, right, [], frozenset({"l"}))
        assert result.num_rows == 6

    def test_equi_join_multiple_predicates(self):
        left = Relation({"l.k1": np.array([1, 1, 2]), "l.k2": np.array([5, 6, 7])})
        right = Relation({"r.k1": np.array([1, 1, 2]), "r.k2": np.array([5, 9, 7])})
        predicates = [JoinPredicate("l", "k1", "r", "k1"), JoinPredicate("l", "k2", "r", "k2")]
        result = hash_join(left, right, predicates, frozenset({"l"}))
        assert result.num_rows == 2

    def test_group_aggregate_grouped(self):
        relation = Relation({
            "t.g": np.array([1, 1, 2, 2, 2]),
            "t.v": np.array([10.0, 20.0, 1.0, 2.0, 3.0]),
        })
        result = group_aggregate(
            relation,
            [ColumnRef("t", "g")],
            [
                Aggregate("sum", "t", "v", "total"),
                Aggregate("count", None, None, "cnt"),
                Aggregate("avg", "t", "v", "mean"),
                Aggregate("min", "t", "v", "lo"),
                Aggregate("max", "t", "v", "hi"),
            ],
        )
        assert list(result["t.g"]) == [1, 2]
        assert list(result["total"]) == [30.0, 6.0]
        assert list(result["cnt"]) == [2, 3]
        assert list(result["mean"]) == [15.0, 2.0]
        assert list(result["lo"]) == [10.0, 1.0]
        assert list(result["hi"]) == [20.0, 3.0]

    def test_group_aggregate_global(self):
        relation = Relation({"t.v": np.array([1.0, 2.0, 3.0])})
        result = group_aggregate(relation, [], [Aggregate("sum", "t", "v", "s")])
        assert result["s"][0] == 6.0

    def test_group_aggregate_empty_input(self):
        relation = Relation({"t.g": np.array([], dtype=np.int64), "t.v": np.array([], dtype=float)})
        grouped = group_aggregate(relation, [ColumnRef("t", "g")], [Aggregate("count", None, None, "c")])
        assert grouped.num_rows == 0
        global_agg = group_aggregate(relation, [], [Aggregate("count", None, None, "c")])
        assert global_agg["c"][0] == 0

    def test_cross_product_with_a_column_free_relation_keeps_its_rows(self):
        """A ``COUNT(*)`` input carries no columns, only a row count."""
        left = Relation({}, num_rows=3)
        right = Relation({"r.b": np.array([1, 2])})
        result = hash_join(left, right, [], frozenset({"l"}))
        assert result.num_rows == 6
        assert list(result) == ["r.b"]
        assert sorted(result["r.b"].tolist()) == [1, 1, 1, 2, 2, 2]

    def test_count_star_over_a_column_free_relation(self):
        relation = Relation({}, num_rows=4)
        result = group_aggregate(relation, [], [Aggregate("count", None, None, "c")])
        assert result["c"][0] == 4


class TestExecutorEndToEnd:
    def test_selection_count_matches_numpy(self, small_db):
        query = parse_query("SELECT count(*) FROM orders WHERE orders.o_priority = 'HIGH'")
        result = Executor(small_db).execute(query)
        expected = int((small_db.table("orders").column("o_priority") == "HIGH").sum())
        assert result.columns["count"][0] == expected

    def test_join_count_matches_reference(self, small_db):
        query = parse_query(
            "SELECT count(*) FROM orders o, items i WHERE o.o_id = i.i_order AND o.o_priority = 'LOW'"
        )
        result = Executor(small_db).execute(query)
        orders = small_db.table("orders")
        items = small_db.table("items")
        low_ids = set(orders.column("o_id")[orders.column("o_priority") == "LOW"].tolist())
        expected = sum(1 for order in items.column("i_order").tolist() if order in low_ids)
        assert result.columns["count"][0] == expected

    def test_join_method_does_not_change_results(self, small_db):
        query = parse_query(
            "SELECT count(*) FROM orders o, items i WHERE o.o_id = i.i_order"
        )
        results = []
        for methods in (
            frozenset({JoinMethod.HASH_JOIN}),
            frozenset({JoinMethod.MERGE_JOIN}),
            frozenset({JoinMethod.NESTED_LOOP}),
            frozenset({JoinMethod.INDEX_NESTED_LOOP, JoinMethod.HASH_JOIN}),
        ):
            settings = OptimizerSettings(enabled_join_methods=methods)
            plan = Optimizer(small_db, settings).optimize(query)
            results.append(Executor(small_db).execute_plan(plan, query).columns["count"][0])
        assert len(set(results)) == 1

    def test_projection_applied(self, small_db):
        query = parse_query("SELECT o.o_id FROM orders o WHERE o.o_total > 500")
        result = Executor(small_db).execute(query)
        assert set(result.columns) == {"o.o_id"}

    def test_instrumentation_records_actual_cardinalities(self, small_db):
        query = parse_query(
            "SELECT count(*) FROM orders o, items i WHERE o.o_id = i.i_order"
        )
        plan = Optimizer(small_db).optimize(query)
        result = Executor(small_db).execute_plan(plan, query)
        actuals = result.actual_cardinalities()
        assert actuals[frozenset({"o", "i"})] == 1000
        assert result.simulated_cost > 0
        assert result.wall_seconds >= 0
        # The total resources equal the sum over the nodes.
        total = sum(ne.resources.tuples for ne in result.node_executions)
        assert result.actual_resources.tuples == pytest.approx(total)

    def test_index_scan_execution_matches_seq_scan(self, small_db):
        query = (
            QueryBuilder("q").table("orders", "o").filter("o", "o_id", "=", 5)
            .aggregate("count", output_name="c").build()
        )
        index_plan = Optimizer(small_db).optimize(query)
        seq_plan = Optimizer(small_db, OptimizerSettings(enable_index_scan=False)).optimize(query)
        executor = Executor(small_db)
        assert (
            executor.execute_plan(index_plan, query).columns["c"][0]
            == executor.execute_plan(seq_plan, query).columns["c"][0]
            == 1
        )

    def test_empty_result_join(self, small_db):
        query = parse_query(
            "SELECT count(*) FROM orders o, items i WHERE o.o_id = i.i_order AND o.o_total < 0"
        )
        result = Executor(small_db).execute(query)
        assert result.columns["count"][0] == 0


class TestNestedLoopBlockParameter:
    def test_block_size_does_not_change_results(self, make_rng):
        from repro.relalg import Relation, nested_loop_join

        rng = make_rng(4)
        left = Relation({"l.k": rng.integers(0, 20, size=300)})
        right = Relation({"r.k": rng.integers(0, 20, size=200)})
        predicates = [JoinPredicate("l", "k", "r", "k")]
        default = nested_loop_join(left, right, predicates, frozenset({"l"}))
        for block_elements in (1, 17, 1000, 10_000_000):
            tiny = nested_loop_join(
                left, right, predicates, frozenset({"l"}), block_elements=block_elements
            )
            assert tiny.num_rows == default.num_rows
            assert np.array_equal(np.asarray(tiny["l.k"]), np.asarray(default["l.k"]))
            assert np.array_equal(np.asarray(tiny["r.k"]), np.asarray(default["r.k"]))
