"""Unit tests for the columnar Table and its schema validation."""

import numpy as np
import pytest

from repro.errors import SchemaError
from repro.storage.table import Column, Table, TableSchema, table_from_rows


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

    def test_numpy_dtype_mapping(self):
        assert Column("x", "int").numpy_dtype() == np.dtype(np.int64)
        assert Column("x", "float").numpy_dtype() == np.dtype(np.float64)
        assert Column("x", "str").numpy_dtype() == np.dtype(object)


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
        assert schema.has_column("b")
        assert not schema.has_column("z")
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

    def test_filter_with_mask(self):
        table = make_table(10)
        sub = table.filter(table.column("a") >= 5)
        assert sub.num_rows == 5
        assert list(sub.column("a")) == [5, 6, 7, 8, 9]

    def test_filter_mask_length_mismatch(self):
        table = make_table(10)
        with pytest.raises(SchemaError):
            table.filter(np.ones(3, dtype=bool))

    def test_head_returns_dicts(self):
        table = make_table(4)
        head = table.head(2)
        assert len(head) == 2
        assert head[0]["a"] == 0

    def test_table_from_rows(self):
        schema = TableSchema("t", (Column("a"), Column("b", "str")))
        table = table_from_rows(schema, [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}])
        assert table.num_rows == 2
        assert list(table.column("b")) == ["x", "y"]

    def test_table_from_rows_missing_column(self):
        schema = TableSchema("t", (Column("a"), Column("b", "str")))
        with pytest.raises(SchemaError):
            table_from_rows(schema, [{"a": 1}])
