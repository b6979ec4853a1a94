"""Unit tests for the columnar Table and its schema validation."""

import numpy as np
import pytest

from repro.errors import SchemaError
from repro.storage.table import Column, Table, TableSchema


def make_table(rows=10):
    schema = TableSchema("t", (Column("a", "int"), Column("b", "float"), Column("c", "str")))
    return Table(schema, {
        "a": np.arange(rows),
        "b": np.linspace(0.0, 1.0, rows),
        "c": np.array([f"v{i}" for i in range(rows)], dtype=object),
    })


class TestColumn:
    def test_rejects_unknown_type(self):
        with pytest.raises(SchemaError):
            Column("x", "decimal")


class TestTableSchema:
    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("t", (Column("a"), Column("a")))

    def test_empty_schema_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("t", ())

    def test_column_lookup(self):
        schema = TableSchema("t", (Column("a"), Column("b")))
        assert schema.column("a").name == "a"
        with pytest.raises(SchemaError):
            schema.column("z")


class TestTable:
    def test_basic_properties(self):
        table = make_table(10)
        assert table.num_rows == 10
        assert len(table) == 10
        assert table.column_names == ["a", "b", "c"]

    def test_column_access_and_dtype_coercion(self):
        table = make_table()
        assert table.column("a").dtype == np.int64
        assert table.column("b").dtype == np.float64
        assert table.column("c").dtype == object
        with pytest.raises(SchemaError):
            table.column("missing")

    def test_missing_column_rejected(self):
        schema = TableSchema("t", (Column("a"), Column("b")))
        with pytest.raises(SchemaError):
            Table(schema, {"a": [1, 2]})

    def test_extra_column_rejected(self):
        schema = TableSchema("t", (Column("a"),))
        with pytest.raises(SchemaError):
            Table(schema, {"a": [1], "z": [2]})

    def test_length_mismatch_rejected(self):
        schema = TableSchema("t", (Column("a"), Column("b")))
        with pytest.raises(SchemaError):
            Table(schema, {"a": [1, 2], "b": [1]})

    def test_two_dimensional_column_rejected(self):
        schema = TableSchema("t", (Column("a"),))
        with pytest.raises(SchemaError):
            Table(schema, {"a": np.zeros((2, 2))})

    def test_take_preserves_order_and_schema(self):
        table = make_table(10)
        sub = table.take(np.array([3, 1, 7]))
        assert sub.num_rows == 3
        assert list(sub.column("a")) == [3, 1, 7]
        assert sub.column_names == table.column_names

    @pytest.mark.parametrize(
        "column_type, values",
        [
            ("int", [1.5, 2.7]),
            ("int", [float("nan")]),
            ("int", [2**63]),
            ("int", ["7"]),
            ("int", [1, None]),
            ("float", ["1.5"]),
            ("float", ["x"]),
        ],
    )
    def test_numeric_column_rejects_values_of_another_type(self, column_type, values):
        schema = TableSchema("t", (Column("a", column_type),))
        with pytest.raises(SchemaError, match=f"non-{column_type}"):
            Table(schema, {"a": values})

    @pytest.mark.parametrize(
        "column_type, values, expected",
        [
            ("int", [True, False], [1, 0]),
            ("int", [1.0, -3.0], [1, -3]),
            ("int", np.array([4, 5], dtype=object), [4, 5]),
            ("float", [1, True], [1.0, 1.0]),
        ],
    )
    def test_numeric_column_loads_numbers_of_its_type(self, column_type, values, expected):
        table = Table(TableSchema("t", (Column("a", column_type),)), {"a": values})
        assert table.column("a").tolist() == expected
