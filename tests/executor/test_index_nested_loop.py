"""``INDEX_NESTED_LOOP`` executes as an index probe — and shows in nothing but time.

The same join tree is run once with ``HASH_JOIN`` and once with
``INDEX_NESTED_LOOP`` at one node: output columns must be byte-equal and the
per-node instrumentation equal (the join node's ``kind`` and priced resources
aside, which name the method).  A spy on the probe kernel pins *which*
operator ran: the probe only for an unfiltered base-table inner joined on one
indexed integer column with an outer under the work rule, the hash kernel for
everything else — in particular for skewed TPC-H q9's two-column ``partsupp``
join, where probing ``ps_partkey`` alone expands millions of partial matches.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

import repro.executor.executor as executor_module
from repro.executor.executor import Executor
from repro.plans.nodes import JoinMethod
from repro.sql.builder import QueryBuilder
from repro.storage.catalog import Database
from repro.storage.table import Column, Table, TableSchema
from repro.workloads.ott import generate_ott_database
from repro.workloads.tpch import generate_tpch_database
from repro.workloads.tpch_queries import make_tpch_query

HASH, INL = JoinMethod.HASH_JOIN, JoinMethod.INDEX_NESTED_LOOP


@pytest.fixture(scope="module")
def tpch_db() -> Database:
    return generate_tpch_database(
        scale_factor=0.01, zipf_z=1.0, seed=1, analyze=False, create_samples=False
    )


@pytest.fixture(scope="module")
def ott_db() -> Database:
    return generate_ott_database(
        num_tables=2, rows_per_table=1500, rows_per_value=30, seed=5, sampling_ratio=0.1
    )


def run(db, plan, query):
    """Execute ``plan``; also the ``table.column`` of every index the probe kernel used."""
    kernel = executor_module.index_nested_loop_join
    with mock.patch.object(executor_module, "index_nested_loop_join", wraps=kernel) as spy:
        execution = Executor(db).execute_plan(plan, query)
    probed = [f"{call.args[3].table_name}.{call.args[3].column}" for call in spy.call_args_list]
    return execution, probed


def assert_same_but_for_the_method(hashed, probed) -> None:
    assert list(hashed.columns) == list(probed.columns)
    for name, want in hashed.columns.items():
        got = probed.columns[name]
        assert want.dtype == got.dtype, name
        if want.dtype == object:
            assert want.tolist() == got.tolist(), name
        else:
            assert want.tobytes() == got.tobytes(), name
    assert hashed.actual_cardinalities() == probed.actual_cardinalities()
    assert len(hashed.node_executions) == len(probed.node_executions)
    for want, got in zip(hashed.node_executions, probed.node_executions):
        assert (want.relations, want.actual_rows) == (got.relations, got.actual_rows)
        if not want.kind.startswith("join:"):
            assert want.kind == got.kind
            assert want.resources.as_array().tolist() == got.resources.as_array().tolist()


def compare(db, left_deep_plan, query, order, inl_at):
    """Run ``order`` all-hash and with INL at join ``inl_at``; the probed indexes."""
    joins = len(order) - 1
    hashed, none = run(db, left_deep_plan(query, order, [HASH] * joins), query)
    assert none == []
    methods = [INL if position in inl_at else HASH for position in range(joins)]
    probed_execution, probed = run(db, left_deep_plan(query, order, methods), query)
    assert_same_but_for_the_method(hashed, probed_execution)
    kinds = [e.kind for e in probed_execution.node_executions if e.kind.startswith("join:")]
    assert kinds == [f"join:{method.value}" for method in methods]
    return probed


def orders_lineitem(lineitem_filter: bool):
    builder = (
        QueryBuilder("orders_lineitem")
        .table("customer", "c")
        .table("orders", "o")
        .table("lineitem", "l")
        .filter("c", "c_mktsegment", "=", "BUILDING")
        .filter("o", "o_orderdate", "<", 400)
        .join("c", "c_custkey", "o", "o_custkey")
        .join("o", "o_orderkey", "l", "l_orderkey")
        .group_by("o", "o_orderdate")
        .aggregate("sum", "l", "l_extendedprice", "revenue")
    )
    if lineitem_filter:
        builder.filter("l", "l_shipdate", ">", 300)
    return builder.build()


class TestTpch:
    def test_unfiltered_inner_is_probed(self, tpch_db, left_deep_plan):
        query = orders_lineitem(lineitem_filter=False)
        assert compare(tpch_db, left_deep_plan, query, ["c", "o", "l"], {1}) == [
            "lineitem.l_orderkey"
        ]

    def test_bare_projection_is_byte_equal_too(self, tpch_db, left_deep_plan):
        query = (
            QueryBuilder("projection")
            .table("orders", "o")
            .table("lineitem", "l")
            .filter("o", "o_orderdate", ">", 1500)
            .join("o", "o_orderkey", "l", "l_orderkey")
            .select("l", "l_extendedprice")
            .select("o", "o_orderpriority")
            .build()
        )
        assert compare(tpch_db, left_deep_plan, query, ["o", "l"], {0}) == ["lineitem.l_orderkey"]

    def test_filtered_inner_takes_the_hash_kernel(self, tpch_db, left_deep_plan):
        query = orders_lineitem(lineitem_filter=True)
        assert compare(tpch_db, left_deep_plan, query, ["c", "o", "l"], {1}) == []

    def test_outer_above_the_work_rule_takes_the_hash_kernel(self, tpch_db, left_deep_plan):
        # 15 000 orders x log2(60 000 lineitems) is more work than one pass over them.
        query = (
            QueryBuilder("every_order")
            .table("orders", "o")
            .table("lineitem", "l")
            .join("o", "o_orderkey", "l", "l_orderkey")
            .group_by("o", "o_orderpriority")
            .aggregate("sum", "l", "l_quantity", "quantity")
            .build()
        )
        assert compare(tpch_db, left_deep_plan, query, ["o", "l"], {0}) == []

    def test_two_predicate_partsupp_join_takes_the_hash_kernel(self, tpch_db, left_deep_plan):
        query = (
            QueryBuilder("partsupp_pair")
            .table("lineitem", "l")
            .table("partsupp", "ps")
            .filter("l", "l_shipdate", "<", 5)
            .join("ps", "ps_suppkey", "l", "l_suppkey")
            .join("ps", "ps_partkey", "l", "l_partkey")
            .aggregate("sum", "ps", "ps_supplycost", "cost")
            .build()
        )
        assert compare(tpch_db, left_deep_plan, query, ["l", "ps"], {0}) == []

    @pytest.mark.parametrize("seed", [0, 5])
    def test_skewed_q9_never_probes_one_column_of_the_partsupp_key(
        self, tpch_db, left_deep_plan, seed
    ):
        """Seed 0 (Brand#52) keeps the outer under the work rule, so only the
        one-predicate rule stands between q9 and the single-column probe; seed
        5 (Brand#42) is the cliff itself: 4 828 outer rows whose ``ps_partkey``
        runs hold 1.8 million partial matches."""
        query = make_tpch_query(tpch_db, 9, seed=seed)
        order = ["p", "l", "ps", "s", "o", "n"]
        probed = compare(tpch_db, left_deep_plan, query, order, {0, 1, 2, 3, 4})
        assert "lineitem.l_partkey" in probed
        assert not any(index.startswith("partsupp.") for index in probed)


class TestOtt:
    @staticmethod
    def query(inner_filter: bool):
        builder = (
            QueryBuilder("ott_pair")
            .table("r1")
            .table("r2")
            .filter("r1", "a", "=", 3)
            .join("r1", "b", "r2", "b")
            .aggregate("count", output_name="result_rows")
        )
        if inner_filter:
            builder.filter("r2", "a", "=", 3)
        return builder.build()

    def test_unfiltered_inner_is_probed(self, ott_db, left_deep_plan):
        assert compare(ott_db, left_deep_plan, self.query(False), ["r1", "r2"], {0}) == ["r2.b"]

    def test_filtered_inner_takes_the_hash_kernel(self, ott_db, left_deep_plan):
        assert compare(ott_db, left_deep_plan, self.query(True), ["r1", "r2"], {0}) == []


@pytest.mark.parametrize(
    "outer_column, inner_column", [("w", "w"), ("v", "w"), ("w", "v"), ("f", "v")]
)
def test_non_integer_keys_take_the_hash_kernel(left_deep_plan, outer_column, inner_column):
    """Only an integer index is probed, and only with a plain integer key: a
    dictionary-encoded column on either side (a mixed pair matches nothing)
    or a float outer key keeps the hash kernel."""
    db = Database("words")
    words = np.array(["ant", "bee", "cat", "bee"] * 25, dtype=object)
    for name, rows in (("small", 3), ("big", 100)):
        schema = TableSchema(name, (Column("w", "str"), Column("v", "int"), Column("f", "float")))
        columns = {"w": words[:rows], "v": np.arange(rows), "f": np.arange(rows) * 0.5}
        db.create_table(Table(schema, columns))
        db.create_index(name, "w")
        db.create_index(name, "v")
    query = (
        QueryBuilder("words")
        .table("small")
        .table("big")
        .join("small", outer_column, "big", inner_column)
        .aggregate("sum", "big", "v", "total")
        .build()
    )
    assert compare(db, left_deep_plan, query, ["small", "big"], {0}) == []
