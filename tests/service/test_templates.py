"""Prepared-statement templates."""

from __future__ import annotations

import pytest

from repro.errors import ParseError
from repro.service.templates import prepare_statement
from repro.sql.builder import QueryBuilder


def _builder_template(name="tpl"):
    return (
        QueryBuilder(name)
        .table("orders", "o")
        .table("items", "i")
        .join("o", "o_id", "i", "i_order")
        .filter_param("o", "o_priority", "=")
        .aggregate("count", output_name="n")
        .build()
    )


class TestPreparedStatement:
    def test_prepare_from_sql(self):
        prepared = prepare_statement(
            "SELECT count(*) AS n FROM orders o, items i "
            "WHERE o.o_id = i.i_order AND o.o_priority = ?"
        )
        assert prepared.name == "prepared"
        assert len(prepared.query.parameters()) == 1
        assert prepared.tables == ["items", "orders"]

    def test_bind_produces_executable_query(self):
        prepared = prepare_statement(_builder_template())
        bound = prepared.bind(["HIGH"])
        assert not bound.is_parameterized
        bound.ensure_bound()

    def test_bind_missing_parameter_raises(self):
        prepared = prepare_statement(_builder_template())
        with pytest.raises(ParseError):
            prepared.bind([])

    def test_binding_key_distinguishes_bindings(self):
        prepared = prepare_statement(_builder_template())
        assert prepared.binding_key(["HIGH"]) != prepared.binding_key(["LOW"])
        assert prepared.binding_key(["HIGH"]) == prepared.binding_key(["HIGH"])

