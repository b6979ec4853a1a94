"""Property: served results are bit-identical to one-shot executions.

For every workload (TPC-H, TPC-DS, OTT) and every serving path — result-cache
hit, sampling-validated plan reuse, forced drift replan — the service must
return exactly the rows a from-scratch pipeline (Algorithm 1 plan + executor)
produces for the same bound query.  Plans may differ between the paths (that
is the point of the plan cache); outputs may not, down to the float bits:
order-sensitive outputs are produced from a canonical pre-aggregation row
order on both sides, so even ``SUM``/``AVG`` accumulation order is pinned.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.service import QueryService, ServiceSettings
from repro.service import cache as cache_module
from repro.sql.builder import QueryBuilder
from repro.workloads.ott import generate_ott_database
from repro.workloads.tpcds import generate_tpcds_database
from repro.workloads.tpch import generate_tpch_database


def _relations_equal(left, right) -> bool:
    if sorted(left) != sorted(right):
        return False
    if left.num_rows != right.num_rows:
        return False
    for name in left:
        a, b = np.asarray(left[name]), np.asarray(right[name])
        if a.dtype.kind == "f" or b.dtype.kind == "f":
            # equal_nan: an empty float SUM/AVG is NaN on both sides — that
            # *is* the identical result (NaN != NaN would reject it).
            if not np.array_equal(
                a.astype(np.float64), b.astype(np.float64), equal_nan=True
            ):
                return False
        elif not np.array_equal(a, b):
            return False
    return True


@pytest.fixture(scope="module")
def tpch_db():
    return generate_tpch_database(scale_factor=0.002, seed=21, sampling_ratio=0.5)


@pytest.fixture(scope="module")
def tpcds_db():
    return generate_tpcds_database(scale=0.02, seed=22, sampling_ratio=0.5)


@pytest.fixture(scope="module")
def ott_prop_db():
    return generate_ott_database(
        num_tables=4, rows_per_table=1600, rows_per_value=40, seed=23, sampling_ratio=0.25
    )


def tpch_revenue_template():
    """Parameterized TPC-H Q3-style join with float SUM (order-sensitive)."""
    return (
        QueryBuilder("tpch_revenue")
        .table("customer", "c").table("orders", "o").table("lineitem", "l")
        .filter_param("c", "c_mktsegment", "=")
        .filter_param("o", "o_orderdate", "<")
        .join("c", "c_custkey", "o", "o_custkey")
        .join("o", "o_orderkey", "l", "l_orderkey")
        .group_by("o", "o_orderpriority")
        .aggregate("sum", "l", "l_extendedprice", "revenue")
        .aggregate("count", output_name="n")
        .build()
    )


def tpch_projection_template():
    """Bare projection (row order exposed -> canonical order contract)."""
    return (
        QueryBuilder("tpch_proj")
        .table("orders", "o").table("lineitem", "l")
        .filter_param("o", "o_orderpriority", "=")
        .filter_param("l", "l_shipmode", "=")
        .join("o", "o_orderkey", "l", "l_orderkey")
        .select("o", "o_orderkey").select("l", "l_extendedprice")
        .build()
    )


def tpcds_template():
    return (
        QueryBuilder("tpcds_sales")
        .table("date_dim", "d").table("item", "i").table("store_sales", "ss")
        .filter_param("d", "d_moy", "=")
        .filter_param("i", "i_category", "=")
        .join("d", "d_date_sk", "ss", "ss_sold_date_sk")
        .join("i", "i_item_sk", "ss", "ss_item_sk")
        .aggregate("sum", "ss", "ss_sales_price", "sales")
        .aggregate("count", output_name="n")
        .build()
    )


def ott_template():
    return (
        QueryBuilder("ott_prop")
        .table("r1").table("r2").table("r3")
        .filter_param("r1", "a", "=")
        .filter_param("r2", "a", "=")
        .filter_param("r3", "a", "=")
        .join("r1", "b", "r2", "b").join("r2", "b", "r3", "b")
        .aggregate("count", output_name="n")
        .build()
    )


def _reference(db, template, bindings):
    """From-scratch serving: no caches, fresh service — one-shot pipeline."""
    with QueryService(
        db,
        settings=ServiceSettings(use_plan_cache=False, use_result_cache=False),
    ) as one_shot:
        return one_shot.execute(template, bindings)


def _assert_served_matches_reference(db, template, binding_sets, service_settings):
    service = QueryService(db, settings=service_settings)
    try:
        seen_sources = set()
        for bindings in binding_sets:
            served = service.execute(template, bindings)
            seen_sources.add(served.source)
            reference = _reference(db, template, bindings)
            assert _relations_equal(served.execution.columns, reference.execution.columns), (
                f"bindings {bindings}: served ({served.source}) differs from one-shot"
            )
    finally:
        service.close()
    return seen_sources


WORKLOADS = [
    ("tpch_revenue", "tpch_db", tpch_revenue_template,
     [["BUILDING", 900], ["BUILDING", 900], ["MACHINERY", 1400], ["AUTOMOBILE", 400]]),
    ("tpch_projection", "tpch_db", tpch_projection_template,
     [["1-URGENT", "AIR"], ["1-URGENT", "AIR"], ["5-LOW", "RAIL"]]),
    ("tpcds", "tpcds_db", tpcds_template,
     [[1, "Books"], [1, "Books"], [6, "Music"]]),
    ("ott", "ott_prop_db", ott_template,
     [[0, 0, 0], [0, 0, 0], [1, 1, 1], [0, 0, 2]]),
]


@pytest.mark.parametrize(
    "label,db_fixture,template_factory,binding_sets",
    WORKLOADS,
    ids=[w[0] for w in WORKLOADS],
)
class TestBitIdentity:
    def test_default_serving(
        self, label, db_fixture, template_factory, binding_sets, request
    ):
        """Cache hits and validated reuses return one-shot results."""
        db = request.getfixturevalue(db_fixture)
        sources = _assert_served_matches_reference(
            db, template_factory(), binding_sets, ServiceSettings()
        )
        assert "fresh" in sources
        assert "result_cache" in sources  # repeated bindings in every set

    def test_forced_replans(
        self, label, db_fixture, template_factory, binding_sets, request, monkeypatch
    ):
        """``DRIFT_THRESHOLD = 1.0`` forces a replan on every non-identical Δ —
        the replanned plans must still return one-shot results."""
        db = request.getfixturevalue(db_fixture)
        monkeypatch.setattr(cache_module, "DRIFT_THRESHOLD", 1.0)
        settings = ServiceSettings(use_result_cache=False)
        _assert_served_matches_reference(db, template_factory(), binding_sets, settings)

    def test_unguarded_reuse(
        self, label, db_fixture, template_factory, binding_sets, request, monkeypatch
    ):
        """Even a cache that never replans (``DRIFT_THRESHOLD = inf``: stale
        plan, rebound constants) is result-correct — the guard is about
        performance, not correctness."""
        db = request.getfixturevalue(db_fixture)
        monkeypatch.setattr(cache_module, "DRIFT_THRESHOLD", float("inf"))
        settings = ServiceSettings(use_result_cache=False)
        _assert_served_matches_reference(db, template_factory(), binding_sets, settings)
