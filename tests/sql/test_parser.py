"""Unit tests for the SQL parser."""

import pytest

from repro.errors import ParseError
from repro.sql.parser import parse_query


class TestBasicParsing:
    def test_select_star_single_table(self):
        query = parse_query("SELECT * FROM orders")
        assert [ref.table for ref in query.tables] == ["orders"]
        assert query.projections == []
        assert query.local_predicates == []

    def test_projection_columns(self):
        query = parse_query("SELECT o.o_id, o.o_total FROM orders o")
        assert len(query.projections) == 2
        assert str(query.projections[0]) == "o.o_id"

    def test_alias_forms(self):
        query = parse_query("SELECT * FROM orders AS o, lineitem l")
        assert query.aliases == ["o", "l"]
        assert query.table_for_alias("l") == "lineitem"

    def test_unqualified_column_single_table(self):
        query = parse_query("SELECT o_id FROM orders WHERE o_total > 10")
        assert query.projections[0].alias == "orders"
        assert query.local_predicates[0].alias == "orders"

    def test_unqualified_column_multi_table_rejected(self):
        with pytest.raises(ParseError):
            parse_query("SELECT o_id FROM orders, lineitem")


class TestPredicates:
    def test_literal_types(self):
        query = parse_query(
            "SELECT * FROM t WHERE t.a = 3 AND t.b >= 1.5 AND t.c = 'BUILDING'"
        )
        values = {(p.column, p.op): p.value for p in query.local_predicates}
        assert values[("a", "=")] == 3
        assert values[("b", ">=")] == 1.5
        assert values[("c", "=")] == "BUILDING"

    def test_not_equal_variants(self):
        query = parse_query("SELECT * FROM t WHERE t.a <> 1 AND t.b != 2")
        assert all(p.op == "<>" for p in query.local_predicates)

    def test_join_predicate_extraction(self):
        query = parse_query(
            "SELECT * FROM orders o, lineitem l WHERE o.o_id = l.l_order AND l.l_qty < 5"
        )
        assert len(query.join_predicates) == 1
        assert len(query.local_predicates) == 1
        join = query.join_predicates[0]
        assert {join.left_alias, join.right_alias} == {"o", "l"}

    def test_non_equality_column_comparison_rejected(self):
        with pytest.raises(ParseError):
            parse_query("SELECT * FROM a, b WHERE a.x < b.y")


class TestAggregatesAndGrouping:
    def test_aggregates_with_alias(self):
        query = parse_query(
            "SELECT sum(l.l_price) AS revenue, count(*) FROM lineitem l GROUP BY l.l_flag"
        )
        assert {a.output_name for a in query.aggregates} == {"revenue", "count"}
        assert query.group_by[0].column == "l_flag"

    def test_count_star(self):
        query = parse_query("SELECT count(*) FROM t")
        assert query.aggregates[0].func == "count"
        assert query.aggregates[0].column is None

    def test_full_tpch_like_query(self, join_graph_connected):
        query = parse_query(
            "SELECT c.c_name, sum(l.l_price) AS revenue "
            "FROM customer c, orders o, lineitem l "
            "WHERE c.c_key = o.o_custkey AND o.o_key = l.l_orderkey "
            "AND c.c_segment = 'BUILDING' AND o.o_date < 900 "
            "GROUP BY c.c_name"
        )
        assert len(query.tables) == 3
        assert len(query.join_predicates) == 2
        assert len(query.local_predicates) == 2
        assert join_graph_connected(query)


class TestParseErrors:
    @pytest.mark.parametrize("text", [
        "",
        "SELECT",
        "SELECT * FROM",
        "SELECT * FROM t WHERE",
        "SELECT * FROM t WHERE t.a =",
        "SELECT * FROM t GROUP",
        "SELECT * FROM t WHERE t.a ~ 3",
        "FROM t SELECT *",
        "SELECT * FROM t extra garbage",
    ])
    def test_malformed_queries_raise(self, text):
        with pytest.raises(ParseError):
            parse_query(text)

    def test_parser_and_builder_agree(self):
        parsed = parse_query(
            "SELECT count(*) FROM r1, r2 WHERE r1.b = r2.b AND r1.a = 0 AND r2.a = 1"
        )
        assert len(parsed.join_predicates) == 1
        assert len(parsed.local_predicates) == 2


class TestInAndBetween:
    def test_in_predicate(self):
        query = parse_query("SELECT count(*) FROM t WHERE t.a IN (1, 2, 3)")
        predicate = query.local_predicates[0]
        assert predicate.op == "in"
        assert predicate.value == (1, 2, 3)

    def test_in_predicate_strings(self):
        query = parse_query("SELECT count(*) FROM t WHERE t.s IN ('x', 'y')")
        assert query.local_predicates[0].value == ("x", "y")

    def test_between_predicate(self):
        query = parse_query("SELECT count(*) FROM t WHERE t.a BETWEEN 2 AND 8")
        predicate = query.local_predicates[0]
        assert predicate.op == "between"
        assert predicate.value == (2, 8)

    def test_between_followed_by_conjunction(self):
        query = parse_query(
            "SELECT count(*) FROM t WHERE t.a BETWEEN 2 AND 8 AND t.b = 1"
        )
        assert len(query.local_predicates) == 2
        assert query.local_predicates[0].op == "between"
        assert query.local_predicates[1].op == "="

    def test_in_mixed_with_join(self):
        query = parse_query(
            "SELECT count(*) FROM r, s WHERE r.k = s.k AND r.a IN (1, 2)"
        )
        assert len(query.join_predicates) == 1
        assert query.local_predicates[0].op == "in"

    @pytest.mark.parametrize("text", [
        "SELECT * FROM t WHERE t.a IN ()",
        "SELECT * FROM t WHERE t.a IN 1",
        "SELECT * FROM t WHERE t.a BETWEEN 1",
        "SELECT * FROM t WHERE t.a BETWEEN AND 2",
    ])
    def test_malformed_in_between_raise(self, text):
        with pytest.raises(ParseError):
            parse_query(text)
