"""End-to-end bit-identity of morsel-parallel execution and validation.

The acceptance contract of the parallel runtime: for every workload query
(TPC-H, TPC-DS, OTT), executing a plan with a parallel scheduler attached
must produce exactly the serial results — output columns, row order, actual
cardinalities, resource vectors and simulated cost — and the sampling
validator must produce exactly the serial Δ cardinalities.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.relalg.aggregate as aggregate_module
import repro.relalg.joins as joins_module
import repro.relalg.predicates as predicates_module
from repro.cardinality.sampling_estimator import SamplingEstimator
from repro.executor.executor import Executor
from repro.optimizer.optimizer import Optimizer
from repro.relalg import TaskScheduler
from repro.workloads.ott import generate_ott_database, make_ott_query
from repro.workloads.tpcds import generate_tpcds_database, make_tpcds_workload
from repro.workloads.tpch import generate_tpch_database
from repro.workloads.tpch_queries import make_tpch_workload


@pytest.fixture
def force_parallel(monkeypatch):
    """Zero the serial-fallback thresholds so test-scale data goes parallel."""
    monkeypatch.setattr(joins_module, "_MIN_PARALLEL_JOIN_ROWS", 0)
    monkeypatch.setattr(aggregate_module, "_MIN_PARALLEL_AGG_ROWS", 0)
    monkeypatch.setattr(predicates_module, "_MIN_PARALLEL_FILTER_ROWS", 0)


@pytest.fixture(scope="module")
def scheduler(multicore_host):
    with TaskScheduler(workers=4, name="test-exec") as sched:
        yield sched


def assert_executions_identical(serial, parallel) -> None:
    assert serial.num_rows == parallel.num_rows
    assert set(serial.columns) == set(parallel.columns)
    for name in serial.columns:
        a = np.asarray(serial.columns[name])
        b = np.asarray(parallel.columns[name])
        assert a.dtype == b.dtype, name
        if np.issubdtype(a.dtype, np.floating):
            # NaN (empty-input aggregates) compares unequal to itself; the
            # bitwise comparison is what "bit-identical" actually means.
            assert np.array_equal(a, b, equal_nan=True), name
        else:
            assert np.array_equal(a, b), name
    assert serial.actual_cardinalities() == parallel.actual_cardinalities()
    assert len(serial.node_executions) == len(parallel.node_executions)
    for node_s, node_p in zip(serial.node_executions, parallel.node_executions):
        assert node_s.relations == node_p.relations
        assert node_s.kind == node_p.kind
        assert node_s.actual_rows == node_p.actual_rows
        assert node_s.resources.as_array().tolist() == node_p.resources.as_array().tolist()
    assert serial.simulated_cost == parallel.simulated_cost


def run_both_and_compare(db, queries, scheduler) -> None:
    optimizer = Optimizer(db)
    serial_executor = Executor(db)
    parallel_executor = Executor(db, scheduler=scheduler, morsel_rows=512)
    for query in queries:
        plan = optimizer.optimize(query)
        serial = serial_executor.execute_plan(plan, query)
        parallel = parallel_executor.execute_plan(plan, query)
        assert_executions_identical(serial, parallel)


class TestWorkloadBitIdentity:
    def test_ott_queries(self, force_parallel, scheduler):
        db = generate_ott_database(
            num_tables=5, rows_per_table=1500, rows_per_value=30, seed=5, sampling_ratio=0.3
        )
        queries = [
            make_ott_query(db, [0, 0, 0, 0, 0]),
            make_ott_query(db, [0, 0, 1, 0, 1]),
            make_ott_query(db, [1, 0, 0, 1, 0]),
        ]
        run_both_and_compare(db, queries, scheduler)

    def test_tpch_queries(self, force_parallel, scheduler):
        db = generate_tpch_database(scale_factor=0.002, seed=3, sampling_ratio=0.4)
        workload = make_tpch_workload(db, instances_per_query=1, seed=3)
        queries = [instances[0] for instances in workload.values()]
        run_both_and_compare(db, queries, scheduler)

    def test_tpcds_queries(self, force_parallel, scheduler):
        db = generate_tpcds_database(scale=0.08, seed=3, sampling_ratio=0.4)
        queries = make_tpcds_workload(db, seed=3)
        run_both_and_compare(db, queries, scheduler)


class TestSamplingValidationBitIdentity:
    def test_validate_plan_identical_cardinalities(self, force_parallel, scheduler):
        db = generate_ott_database(
            num_tables=5, rows_per_table=1500, rows_per_value=30, seed=9, sampling_ratio=0.3
        )
        query = make_ott_query(db, [0, 0, 0, 0, 0])
        plan = Optimizer(db).optimize(query)
        serial = SamplingEstimator(db, query).validate_plan(plan)
        parallel = SamplingEstimator(db, query, scheduler=scheduler).validate_plan(plan)
        assert serial.cardinalities == parallel.cardinalities
        assert serial.joins_validated == parallel.joins_validated
        assert serial.joins_skipped_no_support == parallel.joins_skipped_no_support

    def test_morsel_fingerprint_cache_reuse(self, force_parallel, scheduler):
        """Re-validating the same plan hits the fingerprint-keyed caches —
        no new sample-join row operations on the second pass."""
        db = generate_ott_database(
            num_tables=5, rows_per_table=1500, rows_per_value=30, seed=9, sampling_ratio=0.3
        )
        query = make_ott_query(db, [0, 0, 0, 0, 0])
        plan = Optimizer(db).optimize(query)
        estimator = SamplingEstimator(db, query, scheduler=scheduler)
        first = estimator.validate_plan(plan)
        second = estimator.validate_plan(plan)
        assert first.cardinalities == second.cardinalities
        assert second.sample_join_row_ops == 0


class TestNestedLoopBlockParameter:
    def test_block_size_does_not_change_results(self, make_rng):
        from repro.relalg import Relation, nested_loop_join
        from repro.sql.ast import JoinPredicate

        rng = make_rng(4)
        left = Relation({"l.k": rng.integers(0, 20, size=300)})
        right = Relation({"r.k": rng.integers(0, 20, size=200)})
        predicates = [JoinPredicate("l", "k", "r", "k")]
        default = nested_loop_join(left, right, predicates, frozenset({"l"}))
        for block_elements in (1, 17, 1000, 10_000_000):
            tiny = nested_loop_join(
                left, right, predicates, frozenset({"l"}), block_elements=block_elements
            )
            assert tiny.num_rows == default.num_rows
            assert np.array_equal(np.asarray(tiny["l.k"]), np.asarray(default["l.k"]))
            assert np.array_equal(np.asarray(tiny["r.k"]), np.asarray(default["r.k"]))

    def test_threaded_through_optimizer_settings(self):
        from repro.optimizer.settings import OptimizerSettings
        from repro.cost.units import DEFAULT_COST_UNITS

        settings = OptimizerSettings(nested_loop_block_elements=12_345)
        assert settings.with_units(DEFAULT_COST_UNITS).nested_loop_block_elements == 12_345
        db = generate_ott_database(
            num_tables=3, rows_per_table=200, rows_per_value=10, seed=1, sampling_ratio=0.5
        )
        executor = Executor(db, nested_loop_block_elements=settings.nested_loop_block_elements)
        assert executor.nested_loop_block_elements == 12_345
