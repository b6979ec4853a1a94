"""Unit tests for the Database catalog."""

import numpy as np
import pytest

from repro import Executor, reoptimize
from repro.errors import CatalogError
from repro.plans.nodes import ScanMethod
from repro.service import QueryService
from repro.sql.parser import parse_query
from repro.storage.catalog import Database
from repro.storage.sampling import SampleSet
from repro.storage.table import Column, Table, TableSchema
from repro.workloads.ott import generate_ott_database


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
        # The samples stay, with the replaced table re-sampled in place.
        assert db.samples.base_row_counts["t"] == 50
        assert db.samples.samples["t"].num_rows == 50  # under the sample floor: all rows

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
        assert db.index("t", "b").column == "b"
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
        stats = db.statistics["t"]
        assert stats.row_count == 100
        assert stats.column("b").n_distinct == 10

    def test_create_samples(self, make_table):
        db = Database()
        db.create_table(make_table(rows=1000))
        samples = db.create_samples(ratio=0.1, seed=1)
        assert db.samples is samples
        assert samples.sample_for("t").num_rows >= 80


class TestTableCreatedAfterSampling:
    """A table created after ``create_samples`` is sampled on creation."""

    @pytest.fixture
    def db(self, make_rng):
        db = generate_ott_database(
            num_tables=2, rows_per_table=600, rows_per_value=30, seed=3, sampling_ratio=0.3
        )
        rng = make_rng()
        schema = TableSchema("extra", (Column("a", "int"), Column("b", "int")))
        db.create_table(
            Table(schema, {"a": rng.integers(0, 20, 500), "b": rng.integers(0, 20, 500)})
        )
        db.analyze()
        return db

    QUERY = "SELECT count(*) AS n FROM r1, extra WHERE r1.b = extra.b AND r1.a = 0"

    def _truth(self, db):
        r1_b = db.table("r1").column("b")[db.table("r1").column("a") == 0]
        extra_b = db.table("extra").column("b")
        return int(sum(np.count_nonzero(extra_b == value) for value in r1_b))

    def test_sample_equals_a_full_rebuild(self, db):
        samples = db.samples
        rebuilt = SampleSet.build(
            {name: db.table(name) for name in db.table_names()}, ratio=samples.ratio, seed=samples.seed
        )
        assert sorted(samples.samples) == sorted(rebuilt.samples) == db.table_names()
        assert samples.base_row_counts == rebuilt.base_row_counts
        for name in db.table_names():
            for column in db.table(name).column_names:
                assert np.array_equal(
                    samples.sample_for(name).column(column),
                    rebuilt.sample_for(name).column(column),
                ), (name, column)
        assert 0 < samples.sample_for("extra").num_rows < 500

    def test_join_on_it_reoptimizes(self, db):
        query = parse_query(self.QUERY)
        result = reoptimize(db, query)
        executed = Executor(db).execute_plan(result.final_plan, query)
        assert int(executed.columns["n"][0]) == self._truth(db)

    def test_join_on_it_is_served(self, db):
        with QueryService(db) as service:
            served = service.execute(self.QUERY)
        assert int(served.execution.columns["n"][0]) == self._truth(db)


def _replace(db, name):
    db.create_table(db.table(name), replace=True)


def _drop_and_create(db, name):
    table = db.table(name)
    db.drop_table(name)
    db.create_table(table)


class TestIndexGoneWithItsTable:
    """A cached plan whose index scan lost its index with the table runs as
    a sequential scan over the same predicates."""

    QUERY = "SELECT count(*) AS n FROM r1, r2 WHERE r1.b = r2.b AND r1.a = ?"

    @staticmethod
    def _scans_r1_by_index(plan):
        [scan] = [node for node in plan.walk() if node.relations == {"r1"}]
        return scan.method is ScanMethod.INDEX_SCAN and scan.index_column == "a"

    @pytest.mark.parametrize("recreate", [_replace, _drop_and_create],
                             ids=["replace", "drop_and_create"])
    def test_cached_index_scan_is_served(self, recreate):
        db = generate_ott_database(
            num_tables=2, rows_per_table=3000, rows_per_value=3, seed=3, sampling_ratio=0.3
        )
        with QueryService(db) as service:
            assert self._scans_r1_by_index(service.execute(self.QUERY, (0,)).plan)
            recreate(db, "r1")
            assert not db.has_index("r1", "a")
            served = service.execute(self.QUERY, (2,))
        assert served.source == "validated_reuse" and self._scans_r1_by_index(served.plan)
        with QueryService(db) as fresh:
            expected = fresh.execute(self.QUERY, (2,))
        assert served.execution.columns.keys() == expected.execution.columns.keys()
        for name, column in expected.execution.columns.items():
            assert column.tobytes() == served.execution.columns[name].tobytes()
        r1, r2 = db.table("r1"), db.table("r2")
        r1_b = r1.column("b")[r1.column("a") == 2]
        assert int(served.execution.columns["n"][0]) == int(
            sum(np.count_nonzero(r2.column("b") == value) for value in r1_b)
        )
