"""Dead-column elimination: what a scan or join output carries.

``live_columns(query, join_set)`` is the one liveness rule — the output
stage's input columns of aliases in the set plus the join keys whose other
side lies outside it.  These tests hold the executor to it: over random
connected join graphs (trees and cycles) and *every* connected join set, the
relation a join returns carries exactly that set under each join method, so
a later join always finds its keys and two plans that differ in join method
reach the output stage with the same columns.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.executor.executor import Executor, live_columns, split_final_aggregate
from repro.plans.nodes import JoinMethod
from repro.sql.ast import ColumnRef
from repro.sql.builder import QueryBuilder
from repro.storage.catalog import Database
from repro.storage.table import Column, Table, TableSchema

TABLES = [f"t{index}" for index in range(5)]
KEY_COLUMNS = ("a", "b")
ALL_COLUMNS = ("a", "b", "n", "v", "s")
METHODS = (JoinMethod.HASH_JOIN, JoinMethod.MERGE_JOIN, JoinMethod.NESTED_LOOP)


@pytest.fixture(scope="module")
def db() -> Database:
    """Five 24-row tables; keys repeat (domain 6), so joins fan out."""
    rng = np.random.default_rng(15)
    database = Database("live")
    for name in TABLES:
        schema = TableSchema(name, (
            Column("a", "int"), Column("b", "int"), Column("n", "int"),
            Column("v", "float"), Column("s", "str"),
        ))
        database.create_table(Table(schema, {
            "a": rng.integers(0, 6, size=24),
            "b": rng.integers(0, 6, size=24),
            "n": rng.integers(0, 100, size=24),
            "v": rng.uniform(0.0, 1.0, size=24),
            "s": rng.choice(["x", "y", "z"], size=24).astype(object),
        }))
    return database


column_refs = st.tuples(st.sampled_from(TABLES), st.sampled_from(ALL_COLUMNS))


@st.composite
def queries(draw):
    """A query over 2-5 tables whose join graph is a random tree plus
    optional extra (cycle-closing or parallel) edges, with a random output."""
    count = draw(st.integers(2, 5))
    aliases = TABLES[:count]
    builder = QueryBuilder("live")
    for alias in aliases:
        builder.table(alias)
    edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, count)]
    edges += draw(st.lists(
        st.tuples(st.integers(0, count - 1), st.integers(0, count - 1))
        .filter(lambda edge: edge[0] != edge[1]),
        max_size=2,
    ))
    for left, right in edges:
        builder.join(
            aliases[left], draw(st.sampled_from(KEY_COLUMNS)),
            aliases[right], draw(st.sampled_from(KEY_COLUMNS)),
        )
    refs = [ref for ref in draw(st.lists(column_refs, min_size=1, max_size=3)) if ref[0] in aliases]
    output = draw(st.sampled_from(["aggregate", "projection", "count", "all"]))
    if output == "aggregate":
        builder.group_by(*draw(column_refs.filter(lambda ref: ref[0] in aliases)))
        for alias, column in refs:
            builder.aggregate("min", alias, column, f"min_{alias}_{column}")
    elif output == "projection" and refs:
        for alias, column in refs:
            builder.select(alias, column)
    elif output == "count" or (output == "projection" and not refs):
        builder.aggregate("count", output_name="n")
    return builder.build()


def connected_join_sets(query):
    """Every alias subset of two or more that the join graph connects."""
    for size in range(2, len(query.aliases) + 1):
        for subset in combinations(query.aliases, size):
            order = [subset[0]]
            while len(order) < size:
                reachable = [
                    alias for alias in subset
                    if alias not in order and query.join_predicates_between({alias}, set(order))
                ]
                if not reachable:
                    break
                order.append(reachable[0])
            if len(order) == size:
                yield order


def expected_columns(db, query, join_set):
    live = live_columns(query, join_set)
    if live is not None:
        return set(live)
    return {
        f"{alias}.{column}"
        for alias in join_set
        for column in db.table(query.table_for_alias(alias)).column_names
    }


class TestJoinOutputsCarryTheLiveSet:
    @settings(max_examples=40, deadline=None)
    @given(query=queries())
    def test_every_join_set_under_every_method(self, db, left_deep_plan, query):
        executor = Executor(db)

        def join_plan(order, method):
            return split_final_aggregate(left_deep_plan(query, order, [method]))[0]

        for order in connected_join_sets(query):
            join_set = frozenset(order)
            want = expected_columns(db, query, join_set)
            # Every key a later join matches on is still there.
            for predicate in query.join_predicates:
                aliases = {predicate.left_alias, predicate.right_alias}
                for alias in aliases & join_set:
                    if not aliases <= join_set:
                        assert f"{alias}.{predicate.column_for(alias)}" in want
            row_counts = set()
            for method in METHODS:
                fragment = executor.execute_fragment(join_plan(order, method), query)
                assert set(fragment.columns) == want, (method, order)
                row_counts.add(fragment.num_rows)
            assert len(row_counts) == 1

    def test_scans_carry_the_singleton_live_set(self, db, left_deep_plan):
        query = (
            QueryBuilder("scan").table("t0").table("t1")
            .join("t0", "a", "t1", "b").filter("t0", "n", "<", 50)
            .select("t1", "s").build()
        )
        executor = Executor(db)
        assert set(executor.execute_fragment(left_deep_plan(query, ["t0"], []), query).columns) == {"t0.a"}
        assert set(executor.execute_fragment(left_deep_plan(query, ["t1"], []), query).columns) == {
            "t1.b", "t1.s"
        }

    def test_rule_is_a_function_of_the_query_and_the_set_alone(self):
        query = (
            QueryBuilder("rule").table("t0").table("t1").table("t2")
            .join("t0", "a", "t1", "a").join("t1", "b", "t2", "b").join("t2", "a", "t0", "b")
            .group_by("t1", "s").aggregate("sum", "t2", "v", "total").build()
        )
        assert live_columns(query, {"t0"}) == {"t0.a", "t0.b"}
        assert live_columns(query, {"t0", "t1"}) == {"t0.b", "t1.b", "t1.s"}
        assert live_columns(query, {"t1", "t2"}) == {"t1.a", "t1.s", "t2.a", "t2.v"}
        assert live_columns(query, {"t0", "t1", "t2"}) == {"t1.s", "t2.v"}
        assert live_columns(None, {"t0"}) is None
        query.group_by, query.aggregates = [], []
        assert live_columns(query, {"t0"}) is None  # SELECT *
        query.projections = [ColumnRef("t0", "n")]
        assert live_columns(query, {"t0", "t1", "t2"}) == {"t0.n"}


class TestZeroAndAllLiveColumns:
    CHAIN = ["t0", "t1", "t2"]

    def chain(self, name):
        return (
            QueryBuilder(name).table("t0").table("t1").table("t2")
            .join("t0", "a", "t1", "a").join("t1", "b", "t2", "b")
        )

    @pytest.mark.parametrize("method", METHODS)
    def test_count_star_keeps_its_row_count_with_no_column_left(self, db, left_deep_plan, method):
        everything = self.chain("all").build()
        rows = Executor(db).execute_plan(
            left_deep_plan(everything, self.CHAIN, [method]), everything
        )
        assert rows.num_rows > 0
        count = self.chain("count").aggregate("count", output_name="n").build()
        plan = left_deep_plan(count, self.CHAIN, [method])
        executor = Executor(db)
        assert len(executor.execute_fragment(plan.child, count).columns) == 0
        assert executor.execute_plan(plan, count).columns["n"].tolist() == [rows.num_rows]

        grouped = (
            self.chain("grouped").group_by("t2", "s").aggregate("count", output_name="n").build()
        )
        result = executor.execute_plan(left_deep_plan(grouped, self.CHAIN, [method]), grouped)
        values, counts = np.unique(rows.columns["t2.s"], return_counts=True)
        assert result.columns["t2.s"].tolist() == values.tolist()
        assert result.columns["n"].tolist() == counts.tolist()

    def test_select_star_and_query_less_plans_keep_every_column(self, db, left_deep_plan):
        everything = self.chain("all").build()
        plan = left_deep_plan(everything, self.CHAIN, list(METHODS))
        want = {f"{alias}.{column}" for alias in self.CHAIN for column in ALL_COLUMNS}
        with_query = Executor(db).execute_plan(plan, everything)
        without_query = Executor(db).execute_plan(plan)
        assert set(with_query.columns) == set(without_query.columns) == want
        assert with_query.num_rows == without_query.num_rows
