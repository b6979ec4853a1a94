"""Unit tests for the query AST and join graph."""

import pytest

from repro.errors import ParseError
from repro.sql.ast import Aggregate, JoinPredicate, LocalPredicate
from repro.sql.builder import QueryBuilder


def chain_query(num_tables=4):
    builder = QueryBuilder("chain")
    for index in range(1, num_tables + 1):
        builder.table(f"t{index}")
    for index in range(1, num_tables):
        builder.join(f"t{index}", "k", f"t{index + 1}", "k")
    return builder.build()


class TestPredicates:
    def test_local_predicate_rejects_bad_operator(self):
        with pytest.raises(ParseError):
            LocalPredicate("t", "a", "like", 1)

    def test_join_predicate_normalization(self):
        predicate = JoinPredicate("z", "c1", "a", "c2")
        normalized = predicate.normalized()
        assert normalized.left_alias == "a"
        assert normalized.right_alias == "z"
        # Normalizing twice is a no-op.
        assert normalized.normalized() == normalized

    def test_join_predicate_column_for(self):
        predicate = JoinPredicate("a", "x", "b", "y")
        assert predicate.column_for("a") == "x"
        assert predicate.column_for("b") == "y"
        with pytest.raises(ParseError):
            predicate.column_for("c")

    def test_aggregate_requires_column(self):
        with pytest.raises(ParseError):
            Aggregate(func="sum", alias=None, column=None, output_name="s")
        Aggregate(func="count", alias=None, column=None, output_name="c")


class TestQueryValidation:
    def test_duplicate_aliases_rejected(self):
        builder = QueryBuilder("bad").table("t", "x").table("u", "x")
        with pytest.raises(ParseError):
            builder.build()

    def test_unknown_alias_in_filter_rejected(self):
        builder = QueryBuilder("bad").table("t").filter("missing", "a", "=", 1)
        with pytest.raises(ParseError):
            builder.build()

    def test_self_join_requires_distinct_aliases(self):
        builder = QueryBuilder("bad").table("t", "a").table("t", "b").join("a", "x", "a", "x")
        with pytest.raises(ParseError):
            builder.build()

    def test_table_for_alias(self):
        query = QueryBuilder("q").table("lineitem", "l").build()
        assert query.table_for_alias("l") == "lineitem"
        with pytest.raises(ParseError):
            query.table_for_alias("x")


class TestJoinGraph:
    def test_chain_graph_structure(self, join_edges, join_graph_connected):
        query = chain_query(4)
        assert len(query.aliases) == 4
        assert len(join_edges(query)) == 3
        assert join_graph_connected(query)
        assert len(query.join_predicates) == 3

    def test_disconnected_graph_detected(self, join_graph_connected):
        query = (
            QueryBuilder("q").table("a").table("b").table("c")
            .join("a", "k", "b", "k").build()
        )
        assert not join_graph_connected(query)

    def test_join_predicates_between(self):
        query = chain_query(4)
        between = query.join_predicates_between({"t1", "t2"}, {"t3"})
        assert len(between) == 1
        assert {between[0].left_alias, between[0].right_alias} == {"t2", "t3"}
        assert query.join_predicates_between({"t1"}, {"t4"}) == []

    def test_parallel_edges_collected(self, join_edges):
        query = (
            QueryBuilder("q").table("a").table("b")
            .join("a", "k1", "b", "k1").join("a", "k2", "b", "k2").build()
        )
        edges = join_edges(query)
        assert len(edges) == 1
        assert len(edges[frozenset({"a", "b"})]) == 2

    def test_local_predicates_for(self):
        query = (
            QueryBuilder("q").table("a").table("b")
            .filter("a", "x", "=", 1).filter("a", "y", ">", 2).filter("b", "z", "=", 3)
            .join("a", "k", "b", "k").build()
        )
        assert len(query.local_predicates_for("a")) == 2
        assert len(query.local_predicates_for("b")) == 1
