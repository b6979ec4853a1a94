"""MaterializedNode execution, canonical order, order sensitivity and the
output stage the service and the sharded coordinator share."""

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.executor.executor import (
    Executor,
    combine_execution_accounting,
    finalize_canonical_execution,
    split_final_aggregate,
)
from repro.executor.materialization import (
    canonical_row_order,
    canonicalize_relation,
    exact_partial_columns,
    needs_canonical_order,
)
from repro.optimizer.optimizer import Optimizer
from repro.plans.nodes import AggregateNode, MaterializedNode
from repro.relalg import Relation
from repro.relalg.encoding import DictEncodedArray
from repro.sql.builder import QueryBuilder
from repro.sql.parser import parse_query
from repro.workloads.ott import make_ott_query


class TestCanonicalOrder:
    def test_sorts_rows_lexicographically_by_all_columns(self):
        relation = Relation(
            {"t.a": np.array([2, 1, 2, 1]), "t.b": np.array([0, 5, -1, 4])}
        )
        ordered = canonicalize_relation(relation)
        assert ordered["t.a"].tolist() == [1, 1, 2, 2]
        assert ordered["t.b"].tolist() == [4, 5, -1, 0]

    def test_result_is_a_pure_function_of_the_row_multiset(self, make_rng):
        rng = make_rng()
        base = Relation(
            {"t.a": rng.integers(0, 5, size=50), "t.b": rng.uniform(size=50)}
        )
        shuffled = base.take(rng.permutation(50))
        a, b = canonicalize_relation(base), canonicalize_relation(shuffled)
        assert np.array_equal(a["t.a"], b["t.a"])
        assert np.array_equal(a["t.b"], b["t.b"])

    def test_degenerate_relations_pass_through(self):
        empty = Relation()
        assert canonical_row_order(empty) is None
        assert canonicalize_relation(empty) is empty
        single = Relation({"t.a": np.array([1])})
        assert canonical_row_order(single) is None

    def test_needs_canonical_order(self, ott_db):
        count_only = make_ott_query(ott_db, [0, 0, 0, 1], name="count_only")
        assert not needs_canonical_order(ott_db, count_only)
        projection = (
            QueryBuilder("proj").table("r1").filter("r1", "a", "=", 0)
            .select("r1", "a").build()
        )
        assert needs_canonical_order(ott_db, projection)


    def test_live_projection_drops_other_columns_before_sorting(self):
        relation = Relation(
            {"t.a": np.array([3, 1, 2]), "t.dead": np.array([0, 1, 2])}
        )
        ordered = canonicalize_relation(relation, {"t.a"})
        assert list(ordered) == ["t.a"]
        assert ordered["t.a"].tolist() == [1, 2, 3]

    def test_columns_are_compared_in_sorted_name_order(self):
        # "t.a" sorts before "t.b": it is the primary key whatever the
        # relation's own column order.
        relation = Relation(
            {"t.b": np.array([1, 0, 1, 0]), "t.a": np.array([1, 1, 0, 0])}
        )
        ordered = canonicalize_relation(relation)
        assert ordered["t.a"].tolist() == [0, 0, 1, 1]
        assert ordered["t.b"].tolist() == [0, 1, 0, 1]

    def test_string_and_float_columns_order_by_value(self):
        relation = Relation(
            {
                "t.s": np.array(["pear", "apple", "fig", "apple"], dtype=object),
                "t.x": np.array([0.5, 2.5, -1.0, 1.5]),
            }
        )
        ordered = canonicalize_relation(relation)
        assert ordered["t.s"].tolist() == ["apple", "apple", "fig", "pear"]
        assert ordered["t.x"].tolist() == [1.5, 2.5, -1.0, 0.5]

    def test_fully_tied_rows_keep_their_input_order(self):
        relation = Relation({"t.a": np.array([7, 7, 7])})
        assert canonical_row_order(relation).tolist() == [0, 1, 2]


def _aggregate_query(func, column):
    builder = (
        QueryBuilder(f"{func}_{column}")
        .table("orders", "o").table("items", "i")
        .join("o", "o_id", "i", "i_order")
    )
    if column is None:
        return builder.aggregate(func, output_name="out").build()
    return builder.aggregate(func, "i", column, output_name="out").build()


class TestOrderSensitivity:
    @pytest.mark.parametrize(
        "func, column, sensitive",
        [
            ("count", None, False),
            ("sum", "i_quantity", False),
            ("avg", "i_quantity", False),
            ("min", "i_price", False),
            ("max", "i_price", False),
            ("sum", "i_price", True),
            ("avg", "i_price", True),
        ],
    )
    def test_only_float_sums_and_averages_need_canonical_order(
        self, small_db, func, column, sensitive
    ):
        query = _aggregate_query(func, column)
        assert needs_canonical_order(small_db, query) is sensitive

    def test_one_float_sum_makes_the_whole_query_sensitive(self, small_db):
        query = (
            QueryBuilder("mixed")
            .table("orders", "o").table("items", "i")
            .join("o", "o_id", "i", "i_order")
            .aggregate("sum", "i", "i_quantity", output_name="q")
            .aggregate("sum", "i", "i_price", output_name="p")
            .build()
        )
        assert needs_canonical_order(small_db, query)

    def test_group_by_without_aggregates_is_order_free(self, small_db):
        query = (
            QueryBuilder("groups").table("orders", "o")
            .group_by("o", "o_priority").build()
        )
        assert not needs_canonical_order(small_db, query)

    def test_exact_partial_columns_are_the_integer_aggregate_inputs(self, small_db):
        query = (
            QueryBuilder("cols")
            .table("orders", "o").table("items", "i")
            .join("o", "o_id", "i", "i_order")
            .aggregate("count", output_name="n")
            .aggregate("sum", "i", "i_quantity", output_name="q")
            .aggregate("sum", "i", "i_price", output_name="p")
            .aggregate("max", "o", "o_customer", output_name="c")
            .build()
        )
        assert exact_partial_columns(small_db, query) == {
            ("i", "i_quantity"), ("o", "o_customer")
        }


class TestSplitFinalAggregate:
    def test_aggregate_plan_splits_into_pipeline_and_aggregate(self, small_db):
        query = _aggregate_query("count", None)
        plan = Optimizer(small_db).optimize(query)
        pipeline, aggregate = split_final_aggregate(plan)
        assert aggregate is plan
        assert pipeline is plan.child

    def test_projection_plan_has_no_final_aggregate(self, small_db):
        query = parse_query("SELECT o.o_id FROM orders o WHERE o.o_customer = 3")
        plan = Optimizer(small_db).optimize(query)
        assert split_final_aggregate(plan) == (plan, None)

    def test_aggregate_without_input_is_rejected(self):
        with pytest.raises(ValueError, match="missing its input"):
            split_final_aggregate(AggregateNode(child=None))


def _shuffled(relation, rng):
    return relation.take(rng.permutation(relation.num_rows))


class TestFinalizeCanonicalExecution:
    def _pipeline(self, db, query):
        plan = Optimizer(db).optimize(query)
        pipeline, aggregate = split_final_aggregate(plan)
        fragment = Executor(db).execute_fragment(pipeline, query)
        return fragment, aggregate

    def test_float_sum_is_bit_identical_under_any_row_order(self, small_db, make_rng):
        query = _aggregate_query("sum", "i_price")
        fragment, aggregate = self._pipeline(small_db, query)
        rng = make_rng(1)
        outputs = [
            finalize_canonical_execution(
                Executor(small_db), query, _shuffled(fragment.columns, rng), aggregate
            ).columns["out"]
            for _ in range(4)
        ]
        for output in outputs[1:]:
            assert output.tobytes() == outputs[0].tobytes()

    def test_bare_projection_rows_are_canonical(self, small_db, make_rng):
        query = parse_query(
            "SELECT o.o_customer, i.i_part FROM orders o, items i "
            "WHERE o.o_id = i.i_order AND o.o_customer < 5"
        )
        fragment, aggregate = self._pipeline(small_db, query)
        assert aggregate is None
        first = finalize_canonical_execution(
            Executor(small_db), query, _shuffled(fragment.columns, make_rng(2)), None
        )
        second = finalize_canonical_execution(
            Executor(small_db), query, _shuffled(fragment.columns, make_rng(3)), None
        )
        assert list(first.columns) == ["o.o_customer", "i.i_part"]
        for name in first.columns:
            assert np.array_equal(first.columns[name], second.columns[name])
        keys = list(zip(first.columns["i.i_part"], first.columns["o.o_customer"]))
        assert keys == sorted(keys)

    def test_full_join_result_is_stored_as_the_materialized_leaf(self, small_db):
        query = _aggregate_query("sum", "i_price")
        fragment, aggregate = self._pipeline(small_db, query)
        executor = Executor(small_db)
        result = finalize_canonical_execution(
            executor, query, fragment.columns, aggregate
        )
        stored = executor.intermediates[frozenset({"o", "i"})]
        assert stored.num_rows == fragment.num_rows
        assert [execution.kind for execution in result.node_executions] == [
            "materialized", "aggregate"
        ]

    def test_order_free_query_stores_the_relation_unsorted(self, small_db):
        query = _aggregate_query("count", None)
        fragment, aggregate = self._pipeline(small_db, query)
        executor = Executor(small_db)
        result = finalize_canonical_execution(
            executor, query, fragment.columns, aggregate
        )
        assert executor.intermediates[frozenset({"o", "i"})] is fragment.columns
        assert result.columns["out"].tolist() == [fragment.num_rows]

    def test_matches_monolithic_execution(self, small_db):
        query = _aggregate_query("sum", "i_quantity")
        plan = Optimizer(small_db).optimize(query)
        monolithic = Executor(small_db).execute_plan(plan, query)
        fragment, aggregate = self._pipeline(small_db, query)
        staged = finalize_canonical_execution(
            Executor(small_db), query, fragment.columns, aggregate
        )
        assert staged.columns["out"].tolist() == monolithic.columns["out"].tolist()


class TestCombineExecutionAccounting:
    def _parts(self, small_db):
        query = _aggregate_query("count", None)
        plan = Optimizer(small_db).optimize(query)
        pipeline, aggregate = split_final_aggregate(plan)
        executor = Executor(small_db)
        parts = [executor.execute_fragment(pipeline, query) for _ in range(2)]
        final = finalize_canonical_execution(
            executor, query, parts[0].columns, aggregate
        )
        return executor, parts, final

    def test_node_executions_are_parts_first_then_final(self, small_db):
        executor, parts, final = self._parts(small_db)
        merged = combine_execution_accounting(parts, final, executor.cost_model)
        expected = (
            parts[0].node_executions + parts[1].node_executions + final.node_executions
        )
        assert merged.node_executions == expected

    def test_rows_and_columns_come_from_the_final_stage(self, small_db):
        executor, parts, final = self._parts(small_db)
        merged = combine_execution_accounting(parts, final, executor.cost_model)
        assert merged.columns is final.columns
        assert merged.num_rows == final.num_rows == 1

    def test_cost_and_wall_time_are_summed(self, small_db):
        executor, parts, final = self._parts(small_db)
        merged = combine_execution_accounting(parts, final, executor.cost_model)
        # The materialized leaf is free, so the parts and the aggregate are
        # all the work there is.
        assert merged.simulated_cost == pytest.approx(
            sum(part.simulated_cost for part in parts) + final.simulated_cost
        )
        assert merged.wall_seconds == pytest.approx(
            sum(part.wall_seconds for part in parts) + final.wall_seconds
        )


class TestMaterializedExecution:
    def test_fragment_output_keeps_its_encoding(self, small_db):
        query = parse_query(
            "SELECT i.i_part, o.o_priority FROM orders o, items i "
            "WHERE o.o_id = i.i_order"
        )
        plan = Optimizer(small_db).optimize(query)
        fragment = Executor(small_db).execute_fragment(plan, query)
        shaped = Executor(small_db).execute_plan(plan, query)
        # Only the shaped result decodes the dictionary-encoded string column.
        assert isinstance(fragment.columns["o.o_priority"], DictEncodedArray)
        assert isinstance(shaped.columns["o.o_priority"], np.ndarray)
        assert list(shaped.columns) == ["i.i_part", "o.o_priority"]
        assert fragment.num_rows == shaped.num_rows
        assert (
            fragment.columns.decoded()["o.o_priority"].tolist()
            == shaped.columns["o.o_priority"].tolist()
        )

    def test_materialized_leaf_resolves_from_intermediates(self, small_db):
        relation = Relation({"o.o_id": np.arange(10)})
        executor = Executor(small_db, intermediates={frozenset({"o"}): relation})
        node = MaterializedNode(relations=frozenset({"o"}), estimated_rows=10.0)
        result = executor.execute_fragment(node)
        assert result.num_rows == 10
        assert result.node_executions[0].kind == "materialized"
        # Reuse is free: no resources charged.
        assert result.simulated_cost == 0.0
        assert result.actual_cardinalities()[frozenset({"o"})] == 10

    def test_missing_materialized_leaf_raises(self, small_db):
        executor = Executor(small_db)
        node = MaterializedNode(relations=frozenset({"o"}), estimated_rows=1.0)
        with pytest.raises(ExecutionError):
            executor.execute_fragment(node)

    def test_fragmentwise_join_matches_monolithic(self, small_db):
        """Executing scans and the join as separate checkpointed fragments
        reproduces the monolithic execution bit for bit."""
        query = parse_query(
            "SELECT count(*) FROM orders o, items i WHERE o.o_id = i.i_order"
        )
        plan = Optimizer(small_db).optimize(query)
        monolithic = Executor(small_db).execute_plan(plan, query)

        executor = Executor(small_db)
        join_node = plan.child
        for scan in join_node.scan_nodes():
            fragment = executor.execute_fragment(scan, query)
            executor.intermediates[frozenset({scan.alias})] = fragment.columns
        spliced = replace(
            join_node,
            left=MaterializedNode(relations=frozenset(join_node.left.relations)),
            right=MaterializedNode(relations=frozenset(join_node.right.relations)),
        )
        fragment = executor.execute_fragment(spliced, query)
        assert fragment.num_rows == monolithic.actual_cardinalities()[
            frozenset({"o", "i"})
        ]


class TestSingleTableCardinalities:
    """Join-free queries must report their result cardinality (the
    coordinator's exact-Γ gossip and the golden suite rely on these)."""

    def test_seq_scan_single_table(self, small_db):
        query = parse_query("SELECT count(*) FROM orders o WHERE o.o_total > 500")
        result = Executor(small_db).execute(query)
        actuals = result.actual_cardinalities()
        assert frozenset({"o"}) in actuals
        assert actuals[frozenset({"o"})] == result.columns["count"][0]

    def test_index_scan_single_table(self, small_db):
        query = (
            QueryBuilder("q").table("orders", "o").filter("o", "o_id", "=", 5)
            .aggregate("count", output_name="n").build()
        )
        plan = Optimizer(small_db).optimize(query)
        result = Executor(small_db).execute_plan(plan, query)
        actuals = result.actual_cardinalities()
        assert actuals[frozenset({"o"})] == result.columns["n"][0]

    def test_projection_only_single_table(self, small_db):
        query = parse_query("SELECT o.o_id FROM orders o WHERE o.o_customer = 3")
        result = Executor(small_db).execute(query)
        assert result.actual_cardinalities()[frozenset({"o"})] == result.num_rows
