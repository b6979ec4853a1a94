"""Normalized fingerprints: the shared plan/template/binding cache keys."""

from __future__ import annotations

import numpy as np

from repro.sql.builder import QueryBuilder
from repro.sql.fingerprint import (
    binding_key,
    normalize_value,
    plan_fingerprint,
    statistics_fingerprint,
    template_fingerprint,
)
from repro.sql.parser import parse_query


def _orders_query(value, name="q"):
    return (
        QueryBuilder(name)
        .table("orders", "o")
        .filter("o", "o_customer", "=", value)
        .aggregate("count", output_name="n")
        .build()
    )


class TestNormalization:
    def test_numeric_spellings_collapse(self):
        assert normalize_value(5) == normalize_value(5.0)
        assert normalize_value(np.int64(5)) == normalize_value(5)
        assert normalize_value(np.float64(5.0)) == normalize_value(5)

    def test_distinct_numbers_stay_distinct(self):
        assert normalize_value(5) != normalize_value(6)
        assert normalize_value(5) != normalize_value(5.5)

    def test_bool_is_not_the_number_one(self):
        assert normalize_value(True) != normalize_value(1)

    def test_in_lists_are_order_insensitive(self):
        assert normalize_value((1, 2, 3)) == normalize_value((3, 1, 2))
        assert normalize_value((1, 2, 3)) != normalize_value((1, 2, 4))


class TestPlanFingerprint:
    def test_literal_difference_splits_the_key(self):
        """The regression the shared utility exists for: two queries that
        differ only in a predicate constant must never share a plan."""
        assert plan_fingerprint(_orders_query(5)) != plan_fingerprint(_orders_query(6))
        assert statistics_fingerprint(_orders_query(5)) != statistics_fingerprint(
            _orders_query(6)
        )

    def test_numeric_spelling_does_not_split_the_key(self):
        assert plan_fingerprint(_orders_query(5)) == plan_fingerprint(
            _orders_query(np.int64(5))
        )
        assert plan_fingerprint(_orders_query(5)) == plan_fingerprint(_orders_query(5.0))

    def test_name_is_excluded(self):
        assert plan_fingerprint(_orders_query(5, "a")) == plan_fingerprint(
            _orders_query(5, "b")
        )

    def test_in_list_order_is_normalized(self):
        first = (
            QueryBuilder("q").table("orders", "o")
            .filter("o", "o_priority", "in", ("HIGH", "LOW")).build()
        )
        second = (
            QueryBuilder("q").table("orders", "o")
            .filter("o", "o_priority", "in", ("LOW", "HIGH")).build()
        )
        assert plan_fingerprint(first) == plan_fingerprint(second)

    def test_between_bounds_keep_their_order(self):
        first = (
            QueryBuilder("q").table("orders", "o")
            .filter("o", "o_customer", "between", (1, 5)).build()
        )
        second = (
            QueryBuilder("q").table("orders", "o")
            .filter("o", "o_customer", "between", (5, 1)).build()
        )
        assert plan_fingerprint(first) != plan_fingerprint(second)


    def test_aggregates_only_affect_plan_fingerprint(self):
        base = QueryBuilder("a").table("r1").table("r2").join("r1", "b", "r2", "b")
        aggregated = (
            QueryBuilder("b").table("r1").table("r2").join("r1", "b", "r2", "b")
            .aggregate("count", output_name="c")
        )
        assert statistics_fingerprint(base.build()) == statistics_fingerprint(
            aggregated.build()
        )
        assert plan_fingerprint(base.build()) != plan_fingerprint(aggregated.build())


class TestTemplateFingerprint:
    def test_sql_and_builder_templates_coincide(self):
        parsed = parse_query(
            "SELECT count(*) AS n FROM orders o WHERE o.o_customer = ?", name="sqlside"
        )
        built = (
            QueryBuilder("builderside")
            .table("orders", "o")
            .filter_param("o", "o_customer", "=")
            .aggregate("count", output_name="n")
            .build()
        )
        assert template_fingerprint(parsed) == template_fingerprint(built)

    def test_distinct_shapes_get_distinct_templates(self):
        single = parse_query("SELECT count(*) AS n FROM orders o WHERE o.o_customer = ?")
        joined = parse_query(
            "SELECT count(*) AS n FROM orders o, items i "
            "WHERE o.o_id = i.i_order AND o.o_customer = ?"
        )
        other_column = parse_query("SELECT count(*) AS n FROM orders o WHERE o.o_id = ?")
        fingerprints = {template_fingerprint(q) for q in (single, joined, other_column)}
        assert len(fingerprints) == 3

    def test_parameter_slot_differs_from_constant(self):
        parameterized = parse_query("SELECT count(*) AS n FROM orders o WHERE o.o_customer = ?")
        constant = parse_query("SELECT count(*) AS n FROM orders o WHERE o.o_customer = 5")
        assert template_fingerprint(parameterized) != template_fingerprint(constant)

    def test_binding_key_normalizes_values(self):
        query = parse_query("SELECT count(*) FROM orders o WHERE o.o_customer = ?")
        assert binding_key(query, [5]) == binding_key(query, [np.int64(5)])
        assert binding_key(query, [5]) != binding_key(query, [6])

    def test_binding_key_mapping_vs_sequence(self):
        query = parse_query(
            "SELECT count(*) FROM orders o WHERE o.o_customer = ? AND o.o_priority = ?"
        )
        assert binding_key(query, [5, "HIGH"]) == binding_key(query, {0: 5, 1: "HIGH"})

    def test_positional_zero_never_aliases_named_zero(self):
        """Positional slot 0 and a parameter named "0" are different slots:
        swapping their values must produce a different binding key."""
        query = (
            QueryBuilder("q")
            .table("orders", "o")
            .filter_param("o", "o_customer", "=")           # positional 0
            .filter_param("o", "o_id", "=", name="0")       # named "0"
            .build()
        )
        assert binding_key(query, {0: 5, "0": 7}) != binding_key(query, {0: 7, "0": 5})
