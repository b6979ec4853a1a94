"""Tests for the TPC-H-like and TPC-DS-like generators and query templates."""

import numpy as np
import pytest

from repro.executor.executor import Executor
from repro.optimizer.optimizer import Optimizer
from repro.workloads.tpch import TpchConfig, generate_tpch_database
from repro.workloads.tpch_queries import (
    TPCH_QUERY_NUMBERS,
    TPCH_QUERY_TEMPLATES,
    make_tpch_query,
    make_tpch_workload,
)
from repro.workloads.tpcds import (
    TPCDS_QUERY_NUMBERS,
    generate_tpcds_database,
    make_tpcds_query,
    make_tpcds_workload,
)


@pytest.fixture(scope="module")
def tpch_db():
    return generate_tpch_database(scale_factor=0.002, zipf_z=0.0, seed=3, sampling_ratio=0.4)


@pytest.fixture(scope="module")
def tpcds_db():
    return generate_tpcds_database(scale=0.1, seed=3, sampling_ratio=0.4)


class TestTpchGenerator:
    def test_all_tables_present(self, tpch_db):
        expected = {
            "region", "nation", "supplier", "customer", "part", "partsupp", "orders", "lineitem",
        }
        assert set(tpch_db.table_names()) == expected

    def test_row_counts_scale(self, tpch_db):
        config = TpchConfig(scale_factor=0.002)
        assert tpch_db.table("lineitem").num_rows == config.rows("lineitem") == 12000
        assert tpch_db.table("region").num_rows == 5
        assert tpch_db.table("nation").num_rows == 25

    def test_foreign_keys_resolve(self, tpch_db):
        orders = tpch_db.table("orders")
        customers = tpch_db.table("customer")
        assert orders.column("o_custkey").max() < customers.num_rows
        lineitem = tpch_db.table("lineitem")
        assert lineitem.column("l_orderkey").max() < orders.num_rows

    def test_skewed_generation_is_skewed(self):
        skewed = generate_tpch_database(
            scale_factor=0.002, zipf_z=1.0, seed=3,
            analyze=False, create_samples=False,
        )
        counts = np.bincount(skewed.table("lineitem").column("l_partkey"))
        top_share = counts.max() / counts.sum()
        # With z=1 the hottest part receives far more than the uniform share.
        assert top_share > 5.0 / len(counts)

    def test_statistics_and_samples_ready(self, tpch_db):
        assert "lineitem" in tpch_db.statistics
        assert tpch_db.samples is not None
        assert tpch_db.has_index("lineitem", "l_orderkey")


class TestTpchQueries:
    def test_template_registry_matches_paper(self):
        assert len(TPCH_QUERY_NUMBERS) == 21
        assert 15 not in TPCH_QUERY_NUMBERS
        assert set(TPCH_QUERY_TEMPLATES) == {f"q{n}" for n in TPCH_QUERY_NUMBERS}

    def test_unknown_query_rejected(self, tpch_db):
        with pytest.raises(KeyError):
            make_tpch_query(tpch_db, 15)

    @pytest.mark.parametrize("number", TPCH_QUERY_NUMBERS)
    def test_each_template_builds_optimizes_and_executes(
        self, tpch_db, number, join_graph_connected
    ):
        query = make_tpch_query(tpch_db, number, seed=number)
        query.validate()
        assert join_graph_connected(query)
        plan = Optimizer(tpch_db).optimize(query)
        result = Executor(tpch_db).execute_plan(plan, query)
        assert result.simulated_cost > 0

    def test_workload_instances_differ_in_constants(self, tpch_db):
        # Instance i of query n at workload seed s draws its constants from
        # seed s * 1000 + n * 17 + i; the workload holds instance 0.
        instances = [make_tpch_query(tpch_db, 3, seed=1 * 1000 + 3 * 17 + i) for i in range(3)]
        constants = [tuple(p.value for p in query.local_predicates) for query in instances]
        assert len(set(constants)) > 1
        (first,) = make_tpch_workload(tpch_db, seed=1)["q3"]
        assert tuple(p.value for p in first.local_predicates) == constants[0]

    def test_workload_shape(self, tpch_db):
        workload = make_tpch_workload(tpch_db, seed=0)
        assert len(workload) == 21
        assert all(
            [query.name for query in instances] == [f"{name}_i0"]
            for name, instances in workload.items()
        )


class TestTpcdsGeneratorAndQueries:
    def test_expected_tables_present(self, tpcds_db):
        assert {"store_sales", "store_returns", "date_dim", "item", "customer"} <= set(
            tpcds_db.table_names()
        )

    def test_returns_reference_sales(self, tpcds_db):
        returns = tpcds_db.table("store_returns")
        sales = tpcds_db.table("store_sales")
        assert returns.column("sr_ticket_number").max() < sales.num_rows

    def test_workload_covers_paper_queries(self, tpcds_db):
        queries = make_tpcds_workload(tpcds_db, seed=1)
        assert len(queries) == len(TPCDS_QUERY_NUMBERS) + 1  # + Q50'
        names = {query.name for query in queries}
        assert "q50_prime" in names

    def test_unknown_tpcds_query_rejected(self, tpcds_db):
        with pytest.raises(KeyError):
            make_tpcds_query(tpcds_db, "q9999")

    @pytest.mark.parametrize("name", ["q3", "q17", "q50", "q50_prime", "q99", "q69"])
    def test_representative_queries_execute(self, tpcds_db, name):
        query = make_tpcds_query(tpcds_db, name, seed=11)
        plan = Optimizer(tpcds_db).optimize(query)
        result = Executor(tpcds_db).execute_plan(plan, query)
        assert result.simulated_cost > 0
