"""Unit tests for the Database catalog."""

import numpy as np
import pytest

from repro.errors import CatalogError, StatisticsError
from repro.storage.catalog import Database
from repro.storage.table import Column, Table, TableSchema


@pytest.fixture
def make_table(make_rng):
    """Factory for small deterministic tables (seeded via the shared fixture)."""

    def factory(name="t", rows=100):
        schema = TableSchema(name, (Column("a", "int"), Column("b", "int")))
        rng = make_rng()
        return Table(schema, {"a": np.arange(rows), "b": rng.integers(0, 10, size=rows)})

    return factory


class TestTables:
    def test_create_and_lookup(self, make_table):
        db = Database()
        table = db.create_table(make_table())
        assert db.has_table("t")
        assert db.table("t") is table
        assert db.table_names() == ["t"]

    def test_duplicate_create_rejected(self, make_table):
        db = Database()
        db.create_table(make_table())
        with pytest.raises(CatalogError):
            db.create_table(make_table())

    def test_replace_invalidates_derived_state(self, make_table):
        db = Database()
        db.create_table(make_table())
        db.create_index("t", "a")
        db.analyze()
        db.create_samples(ratio=0.5, seed=0)
        db.create_table(make_table(rows=50), replace=True)
        assert not db.has_index("t", "a")
        assert "t" not in db.statistics
        assert db.samples is None

    def test_drop_table(self, make_table):
        db = Database()
        db.create_table(make_table())
        db.create_index("t", "a")
        db.analyze()
        db.drop_table("t")
        assert not db.has_table("t")
        assert "t" not in db.statistics
        with pytest.raises(CatalogError):
            db.drop_table("t")

    def test_unknown_table_lookup(self):
        with pytest.raises(CatalogError):
            Database().table("nope")


class TestIndexes:
    def test_create_and_lookup_index(self, make_table):
        db = Database()
        db.create_table(make_table())
        db.create_index("t", "b")
        assert db.has_index("t", "b")
        assert db.index("t", "b").num_keys == 10
        assert db.indexed_columns("t") == ["b"]

    def test_missing_index_raises(self, make_table):
        db = Database()
        db.create_table(make_table())
        with pytest.raises(CatalogError):
            db.index("t", "a")


class TestStatisticsAndSamples:
    def test_analyze_populates_statistics(self, make_table):
        db = Database()
        db.create_table(make_table())
        db.analyze()
        stats = db.table_statistics("t")
        assert stats.row_count == 100
        assert stats.column("b").n_distinct == 10

    def test_statistics_missing_raises(self, make_table):
        db = Database()
        db.create_table(make_table())
        with pytest.raises(StatisticsError):
            db.table_statistics("t")

    def test_create_samples(self, make_table):
        db = Database()
        db.create_table(make_table(rows=1000))
        samples = db.create_samples(ratio=0.1, seed=1)
        assert db.samples is samples
        assert samples.sample_for("t").num_rows >= 80

    def test_create_table_from_columns(self):
        db = Database()
        table = db.create_table_from_columns(
            "x", (Column("a", "int"),), {"a": [1, 2, 3]}
        )
        assert table.num_rows == 3
        assert db.has_table("x")
