"""Unit tests for the sorted index (equality, range and batch lookups)."""

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

    def test_num_keys(self, table):
        assert SortedIndex(table, "k").num_keys == 3

    def test_missing_column_rejected(self, table):
        with pytest.raises(CatalogError):
            SortedIndex(table, "missing")

    def test_lookup_values_match_base_table(self, table):
        index = SortedIndex(table, "k")
        rows = index.lookup(5)
        assert set(table.column("k")[rows]) == {5}


    def test_lookup_lists_rows_ascending(self, table):
        assert SortedIndex(table, "k").lookup(5).tolist() == [0, 2, 5]

    @pytest.mark.parametrize("value", ["5", None, 5.5, b"5"])
    def test_lookup_of_a_wrongly_typed_value_is_empty(self, table, value):
        assert SortedIndex(table, "k").lookup(value).size == 0

    def test_lookup_on_a_string_column(self):
        schema = TableSchema("s", (Column("name", "str"),))
        index = SortedIndex(Table(schema, {"name": ["b", "a", "b", "c"]}), "name")
        assert index.lookup("b").tolist() == [0, 2]
        assert index.lookup("zz").size == 0
        assert index.lookup(7).size == 0
        assert index.num_keys == 3

    def test_empty_table(self):
        schema = TableSchema("e", (Column("k", "int"),))
        index = SortedIndex(Table(schema, {"k": np.empty(0, dtype=np.int64)}), "k")
        assert index.num_keys == 0
        assert index.lookup(1).size == 0


class TestProbe:
    def test_probe_returns_each_keys_run(self, table):
        index = SortedIndex(table, "k")
        starts, counts = index.probe(np.array([5, 2, 1, 3, 9]))
        assert counts.tolist() == [3, 0, 1, 2, 0]
        runs = [index.rows[s : s + c].tolist() for s, c in zip(starts, counts)]
        assert runs == [[0, 2, 5], [], [3], [1, 4], []]

    def test_probe_agrees_with_lookup(self, table):
        index = SortedIndex(table, "k")
        keys = np.arange(-1, 8)
        starts, counts = index.probe(keys)
        for key, start, count in zip(keys, starts, counts):
            assert index.rows[start : start + count].tolist() == index.lookup(key).tolist()


class TestRangeLookup:
    def test_range_lookup_inclusive(self, table):
        index = SortedIndex(table, "k")
        rows = index.range_lookup(3, 5)
        assert sorted(table.column("k")[rows].tolist()) == [3, 3, 5, 5, 5]

    def test_range_lookup_exclusive_bounds(self, table):
        index = SortedIndex(table, "k")
        rows = index.range_lookup(1, 5, include_low=False, include_high=False)
        assert sorted(table.column("k")[rows].tolist()) == [3, 3]

    def test_open_ended_ranges(self, table):
        index = SortedIndex(table, "k")
        assert len(index.range_lookup(None, None)) == 6
        assert sorted(table.column("k")[index.range_lookup(4, None)].tolist()) == [5, 5, 5]
        assert sorted(table.column("k")[index.range_lookup(None, 2)].tolist()) == [1]

    def test_empty_range(self, table):
        index = SortedIndex(table, "k")
        assert index.range_lookup(10, 20).size == 0

    def test_missing_column_rejected(self, table):
        with pytest.raises(CatalogError):
            SortedIndex(table, "missing")
