"""Canonical order, order sensitivity and the output stage every execution
path ends with."""

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.executor.executor import (
    ExecutionResult,
    Executor,
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
from repro.plans.nodes import AggregateNode
from repro.relalg import Relation, partial_aggregate
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
            AggregateNode(child=None)


def _shuffled(fragment, rng):
    relation = fragment.columns.take(rng.permutation(fragment.num_rows))
    return ExecutionResult(columns=relation, num_rows=relation.num_rows)


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
                Executor(small_db), query, [_shuffled(fragment, rng)], aggregate,
                order_rows=True,
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
        first, second = (
            finalize_canonical_execution(
                Executor(small_db), query, [_shuffled(fragment, make_rng(seed))], None,
                order_rows=True,
            )
            for seed in (2, 3)
        )
        assert list(first.columns) == ["o.o_customer", "i.i_part"]
        for name in first.columns:
            assert np.array_equal(first.columns[name], second.columns[name])
        keys = list(zip(first.columns["i.i_part"], first.columns["o.o_customer"]))
        assert keys == sorted(keys)

    def test_rows_keep_their_order_unless_asked(self, small_db, make_rng):
        query = parse_query(
            "SELECT o.o_customer, i.i_part FROM orders o, items i "
            "WHERE o.o_id = i.i_order AND o.o_customer < 5"
        )
        fragment, _ = self._pipeline(small_db, query)
        shuffled = _shuffled(fragment, make_rng(4))
        result = finalize_canonical_execution(Executor(small_db), query, [shuffled])
        for name in result.columns:
            assert np.array_equal(
                result.columns[name], shuffled.columns.decoded()[name]
            )

    def test_matches_monolithic_execution(self, small_db):
        query = _aggregate_query("sum", "i_quantity")
        plan = Optimizer(small_db).optimize(query)
        monolithic = Executor(small_db).execute_plan(plan, query)
        fragment, aggregate = self._pipeline(small_db, query)
        staged = finalize_canonical_execution(
            Executor(small_db), query, [fragment], aggregate, order_rows=True
        )
        assert staged.columns["out"].tolist() == monolithic.columns["out"].tolist()

    def test_partial_states_merge_to_the_bytes_of_the_raw_rows(self, small_db):
        query = (
            QueryBuilder("groups")
            .table("orders", "o").table("items", "i")
            .join("o", "o_id", "i", "i_order")
            .group_by("o", "o_priority")
            .aggregate("count", output_name="n")
            .aggregate("avg", "i", "i_quantity", output_name="q")
            .aggregate("min", "o", "o_priority", output_name="p")
            .build()
        )
        fragment, aggregate = self._pipeline(small_db, query)
        halves = [
            fragment.columns.take(np.arange(fragment.num_rows)[parity::2])
            for parity in (0, 1)
        ]
        raw = [ExecutionResult(columns=half, num_rows=half.num_rows) for half in halves]
        states = [
            ExecutionResult(columns=state, num_rows=state.num_rows)
            for state in (
                partial_aggregate(half, query.group_by, query.aggregates) for half in halves
            )
        ]
        executor = Executor(small_db)
        merged = finalize_canonical_execution(
            executor, query, states, aggregate, partial_states=True
        )
        whole = finalize_canonical_execution(executor, query, raw, aggregate)
        assert list(merged.columns) == list(whole.columns)
        for name in whole.columns:
            assert merged.columns[name].dtype == whole.columns[name].dtype
            assert merged.columns[name].tolist() == whole.columns[name].tolist()


class TestOutputStageAccounting:
    def _staged(self, small_db):
        query = _aggregate_query("count", None)
        plan = Optimizer(small_db).optimize(query)
        pipeline, aggregate = split_final_aggregate(plan)
        executor = Executor(small_db)
        parts = [executor.execute_fragment(pipeline, query) for _ in range(2)]
        return parts, finalize_canonical_execution(executor, query, parts, aggregate)

    def test_node_executions_are_parts_first_then_the_aggregate(self, small_db):
        parts, result = self._staged(small_db)
        expected = parts[0].node_executions + parts[1].node_executions
        assert result.node_executions[:-1] == expected
        aggregate = result.node_executions[-1]
        assert aggregate.kind == "aggregate"
        assert aggregate.actual_rows == 1

    def test_rows_come_from_the_output_and_count_every_part(self, small_db):
        parts, result = self._staged(small_db)
        assert result.num_rows == 1
        assert result.columns["out"].tolist() == [sum(part.num_rows for part in parts)]

    def test_cost_and_wall_time_are_summed(self, small_db):
        parts, result = self._staged(small_db)
        aggregate_cost = Executor(small_db).cost_model.cost(
            result.node_executions[-1].resources
        )
        assert result.simulated_cost == pytest.approx(
            sum(part.simulated_cost for part in parts) + aggregate_cost
        )
        assert result.wall_seconds >= sum(part.wall_seconds for part in parts)


class TestFragmentExecution:
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

    def test_an_aggregate_is_not_a_pipeline_node(self, small_db):
        plan = Optimizer(small_db).optimize(_aggregate_query("count", None))
        with pytest.raises(ExecutionError, match="not a join pipeline node"):
            Executor(small_db).execute_fragment(plan)


class TestSingleTableCardinalities:
    """Join-free queries must report their result cardinality."""

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
