"""Unit tests for the sorted index (equality and batch lookups)."""

import numpy as np
import pytest

from repro.errors import CatalogError
from repro.storage.index import SortedIndex
from repro.storage.table import Column, Table, TableSchema


@pytest.fixture
def table():
    schema = TableSchema("t", (Column("k", "int"), Column("v", "int")))
    return Table(schema, {"k": np.array([5, 3, 5, 1, 3, 5]), "v": np.arange(6)})


class TestLookup:
    def test_lookup_returns_all_matches(self, table):
        index = SortedIndex(table, "k")
        assert sorted(index.lookup(5).tolist()) == [0, 2, 5]
        assert sorted(index.lookup(3).tolist()) == [1, 4]
        assert index.lookup(1).tolist() == [3]

    def test_lookup_missing_value_is_empty(self, table):
        index = SortedIndex(table, "k")
        assert index.lookup(42).size == 0

    def test_missing_column_rejected(self, table):
        with pytest.raises(CatalogError):
            SortedIndex(table, "missing")

    def test_lookup_values_match_base_table(self, table):
        index = SortedIndex(table, "k")
        rows = index.lookup(5)
        assert set(table.column("k")[rows]) == {5}


    def test_lookup_lists_rows_ascending(self, table):
        assert SortedIndex(table, "k").lookup(5).tolist() == [0, 2, 5]

    def test_lookup_of_numpy_scalars(self, table):
        index = SortedIndex(table, "k")
        assert index.lookup(np.int64(3)).tolist() == [1, 4]
        assert index.lookup(np.float64(1.0)).tolist() == [3]

    @pytest.mark.parametrize("value", ["5", None, 5.5, b"5"])
    def test_lookup_of_a_wrongly_typed_value_is_empty(self, table, value):
        assert SortedIndex(table, "k").lookup(value).size == 0

    def test_lookup_on_a_string_column(self):
        schema = TableSchema("s", (Column("name", "str"),))
        index = SortedIndex(Table(schema, {"name": ["b", "a", "b", "c"]}), "name")
        assert index.lookup("b").tolist() == [0, 2]
        assert index.lookup("zz").size == 0
        assert index.lookup(7).size == 0

    def test_empty_table(self):
        schema = TableSchema("e", (Column("k", "int"),))
        index = SortedIndex(Table(schema, {"k": np.empty(0, dtype=np.int64)}), "k")
        assert index.lookup(1).size == 0


class TestProbe:
    def test_probe_returns_each_keys_run(self, table):
        index = SortedIndex(table, "k")
        starts, counts = index.probe(np.array([5, 2, 1, 3, 9]))
        assert counts.tolist() == [3, 0, 1, 2, 0]
        runs = [index.rows[s : s + c].tolist() for s, c in zip(starts, counts)]
        assert runs == [[0, 2, 5], [], [3], [1, 4], []]

    def test_probe_of_no_keys_is_empty(self, table):
        starts, counts = SortedIndex(table, "k").probe(np.empty(0, dtype=np.int64))
        assert starts.size == counts.size == 0

    def test_probe_with_float_keys_on_an_int_column(self, table):
        """An equality probe compares values, not spellings: 3.0 finds 3."""
        index = SortedIndex(table, "k")
        starts, counts = index.probe(np.array([3.0, 3.5]))
        assert counts.tolist() == [2, 0]
        assert index.rows[starts[0] : starts[0] + counts[0]].tolist() == [1, 4]

    def test_probe_agrees_with_lookup(self, table):
        index = SortedIndex(table, "k")
        keys = np.arange(-1, 8)
        starts, counts = index.probe(keys)
        for key, start, count in zip(keys, starts, counts):
            assert index.rows[start : start + count].tolist() == index.lookup(key).tolist()
