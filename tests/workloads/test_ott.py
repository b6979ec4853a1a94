"""Tests for the OTT database/query generators (Section 4)."""

import numpy as np
import pytest

from repro.cardinality.estimator import CardinalityEstimator
from repro.executor.executor import Executor
from repro.optimizer.optimizer import Optimizer
from repro.workloads.ott import (
    OttConfig,
    generate_ott_database,
    make_ott_query,
    make_ott_workload,
    ott_table_name,
)


@pytest.fixture(scope="module")
def db():
    # rows_per_value is kept small so that the all-matching (non-empty) query
    # executed in these tests materialises ~20^4 rows rather than millions.
    return generate_ott_database(
        num_tables=4, rows_per_table=2000, rows_per_value=20, seed=21, sampling_ratio=0.2
    )


class TestDataGeneration:
    def test_table_naming(self):
        assert ott_table_name(1) == "r1"
        assert ott_table_name(12) == "r12"

    def test_b_equals_a(self, db):
        """Algorithm 2 line 4: the join column equals the selection column."""
        for index in range(1, 5):
            table = db.table(ott_table_name(index))
            assert np.array_equal(table.column("a"), table.column("b"))

    def test_domain_size(self, db):
        config = OttConfig(num_tables=4, rows_per_table=2000, rows_per_value=20)
        assert config.domain_size == 100
        for index in range(1, 5):
            values = db.table(ott_table_name(index)).column("a")
            assert values.min() >= 0
            assert values.max() < 100

    def test_tables_generated_independently(self, db):
        """Algorithm 2 line 2: each relation uses its own random seed."""
        assert not np.array_equal(db.table("r1").column("a"), db.table("r2").column("a"))

    def test_indexes_statistics_samples_created(self, db):
        assert db.has_index("r1", "a") and db.has_index("r1", "b")
        assert "r1" in db.statistics
        assert db.samples is not None


class TestQueries:
    def test_query_structure(self, db, join_graph_connected):
        query = make_ott_query(db, [0, 1, 2, 3])
        assert len(query.join_predicates) == 3
        assert len(query.local_predicates) == 4
        assert join_graph_connected(query)

    def test_query_requires_two_tables(self, db):
        with pytest.raises(ValueError):
            make_ott_query(db, [0])

    def test_query_unknown_table_rejected(self, db):
        with pytest.raises(ValueError):
            make_ott_query(db, [0, 0, 0, 0, 0, 0, 0])

    def test_equation3_empty_vs_nonempty(self, db):
        """The query is non-empty exactly when all constants are equal."""
        executor = Executor(db)
        optimizer = Optimizer(db)
        empty_query = make_ott_query(db, [0, 0, 1, 0])
        nonempty_query = make_ott_query(db, [2, 2, 2, 2])
        empty_rows = executor.execute_plan(
            optimizer.optimize(empty_query), empty_query
        ).columns["result_rows"][0]
        nonempty_rows = executor.execute_plan(
            optimizer.optimize(nonempty_query), nonempty_query
        ).columns["result_rows"][0]
        assert empty_rows == 0
        assert nonempty_rows > 0

    def test_optimizer_estimate_identical_regardless_of_emptiness(self, db):
        """Appendix D: the estimated size does not depend on Equation 3 holding."""
        empty_query = make_ott_query(db, [0, 0, 1, 0])
        nonempty_query = make_ott_query(db, [0, 0, 0, 0])
        full = {"r1", "r2", "r3", "r4"}
        empty_estimate = CardinalityEstimator(db, empty_query).joinset_cardinality(full)
        nonempty_estimate = CardinalityEstimator(db, nonempty_query).joinset_cardinality(full)
        assert empty_estimate == pytest.approx(nonempty_estimate, rel=0.35)

    def test_underestimation_gap_grows_with_joins(self, db):
        """Example 4: the optimizer underestimates by ~M^K / L^(K-1)."""
        query = make_ott_query(db, [0, 0, 0, 0])
        estimator = CardinalityEstimator(db, query)
        estimate = estimator.joinset_cardinality({"r1", "r2", "r3", "r4"})
        selected = [int((db.table(f"r{i}").column("a") == 0).sum()) for i in range(1, 5)]
        actual = np.prod(selected, dtype=float)
        assert actual > 50 * estimate


class TestWorkload:
    def test_workload_size_and_names(self, db):
        queries = make_ott_workload(db, num_tables=4, num_queries=7, seed=3)
        assert len(queries) == 7
        assert [q.name for q in queries] == [f"ott_q{i}" for i in range(1, 8)]

    def test_all_workload_queries_are_empty(self, db):
        """With m < n matching selections every workload query is empty."""
        executor = Executor(db)
        optimizer = Optimizer(db)
        for query in make_ott_workload(db, num_tables=4, num_queries=5, seed=9):
            rows = executor.execute_plan(optimizer.optimize(query), query).columns["result_rows"][0]
            assert rows == 0

    def test_invalid_num_matching(self, db):
        with pytest.raises(ValueError):
            make_ott_workload(db, num_tables=4, num_queries=2, num_matching=4)

    def test_workload_reproducible(self, db):
        first = make_ott_workload(db, num_tables=4, num_queries=3, seed=5)
        second = make_ott_workload(db, num_tables=4, num_queries=3, seed=5)
        for a, b in zip(first, second):
            assert [p.value for p in a.local_predicates] == [p.value for p in b.local_predicates]
