"""TPC-H-style query templates (21 queries; Q15 excluded as in the paper).

Each template is a function ``(db, rng) -> Query`` that instantiates random
constants the way the official qgen does (different query instances differ in
their constants — the error bars of Figures 4/7 come from that variation).
The templates keep the join structure and the predicate columns of the
official queries; sub-query constructs the engine does not support
(EXISTS/NOT EXISTS, views, scalar sub-queries) are approximated by the
equivalent join skeleton, which is the part of the query the optimizer's join
ordering — and therefore re-optimization — actually interacts with.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.sql.ast import Query
from repro.sql.builder import QueryBuilder
from repro.storage.catalog import Database
from repro.workloads.tpch import (
    BRANDS,
    CONTAINERS,
    DATE_RANGE_DAYS,
    MARKET_SEGMENTS,
    NATION_NAMES,
    ORDER_PRIORITIES,
    REGION_NAMES,
    SHIP_MODES,
    TYPES,
)

#: Template registry: query name -> builder function.
QueryTemplate = Callable[[Database, np.random.Generator], Query]
TPCH_QUERY_TEMPLATES: Dict[str, QueryTemplate] = {}

#: TPC-H query numbers the paper evaluates (Q15 excluded).
TPCH_QUERY_NUMBERS = [n for n in range(1, 23) if n != 15]


def _register(name: str) -> Callable[[QueryTemplate], QueryTemplate]:
    def decorator(func: QueryTemplate) -> QueryTemplate:
        TPCH_QUERY_TEMPLATES[name] = func
        return func

    return decorator


def _random_date(rng: np.random.Generator, low_fraction: float = 0.1, high_fraction: float = 0.9) -> int:
    low = int(DATE_RANGE_DAYS * low_fraction)
    high = int(DATE_RANGE_DAYS * high_fraction)
    return int(rng.integers(low, high + 1))


def _choice(rng: np.random.Generator, values: Sequence[object]) -> object:
    return values[int(rng.integers(0, len(values)))]


# --------------------------------------------------------------------------- #
# Query templates
# --------------------------------------------------------------------------- #
@_register("q1")
def q1(db: Database, rng: np.random.Generator) -> Query:
    """Pricing summary report: single-table scan with aggregation."""
    cutoff = DATE_RANGE_DAYS - int(rng.integers(60, 121))
    return (
        QueryBuilder("q1")
        .table("lineitem", "l")
        .filter("l", "l_shipdate", "<=", cutoff)
        .group_by("l", "l_returnflag")
        .group_by("l", "l_linestatus")
        .aggregate("sum", "l", "l_quantity", "sum_qty")
        .aggregate("sum", "l", "l_extendedprice", "sum_base_price")
        .aggregate("avg", "l", "l_discount", "avg_disc")
        .aggregate("count", output_name="count_order")
        .build()
    )


@_register("q2")
def q2(db: Database, rng: np.random.Generator) -> Query:
    """Minimum cost supplier: part/partsupp/supplier/nation/region join."""
    return (
        QueryBuilder("q2")
        .table("part", "p")
        .table("partsupp", "ps")
        .table("supplier", "s")
        .table("nation", "n")
        .table("region", "r")
        .filter("p", "p_size", "=", int(rng.integers(1, 51)))
        .filter("r", "r_name", "=", _choice(rng, REGION_NAMES))
        .join("p", "p_partkey", "ps", "ps_partkey")
        .join("ps", "ps_suppkey", "s", "s_suppkey")
        .join("s", "s_nationkey", "n", "n_nationkey")
        .join("n", "n_regionkey", "r", "r_regionkey")
        .aggregate("min", "ps", "ps_supplycost", "min_supplycost")
        .aggregate("count", output_name="num_candidates")
        .build()
    )


@_register("q3")
def q3(db: Database, rng: np.random.Generator) -> Query:
    """Shipping priority: customer/orders/lineitem."""
    date = _random_date(rng, 0.3, 0.5)
    return (
        QueryBuilder("q3")
        .table("customer", "c")
        .table("orders", "o")
        .table("lineitem", "l")
        .filter("c", "c_mktsegment", "=", _choice(rng, MARKET_SEGMENTS))
        .filter("o", "o_orderdate", "<", date)
        .filter("l", "l_shipdate", ">", date)
        .join("c", "c_custkey", "o", "o_custkey")
        .join("o", "o_orderkey", "l", "l_orderkey")
        .group_by("o", "o_orderdate")
        .aggregate("sum", "l", "l_extendedprice", "revenue")
        .build()
    )


@_register("q4")
def q4(db: Database, rng: np.random.Generator) -> Query:
    """Order priority checking: orders with late lineitems."""
    start = _random_date(rng, 0.2, 0.7)
    return (
        QueryBuilder("q4")
        .table("orders", "o")
        .table("lineitem", "l")
        .between("o", "o_orderdate", start, start + 90)
        .filter("l", "l_returnflag", "=", "R")
        .join("o", "o_orderkey", "l", "l_orderkey")
        .group_by("o", "o_orderpriority")
        .aggregate("count", output_name="order_count")
        .build()
    )


@_register("q5")
def q5(db: Database, rng: np.random.Generator) -> Query:
    """Local supplier volume: 6-way join with a region filter."""
    start = _random_date(rng, 0.1, 0.7)
    return (
        QueryBuilder("q5")
        .table("customer", "c")
        .table("orders", "o")
        .table("lineitem", "l")
        .table("supplier", "s")
        .table("nation", "n")
        .table("region", "r")
        .filter("r", "r_name", "=", _choice(rng, REGION_NAMES))
        .between("o", "o_orderdate", start, start + 365)
        .join("c", "c_custkey", "o", "o_custkey")
        .join("o", "o_orderkey", "l", "l_orderkey")
        .join("l", "l_suppkey", "s", "s_suppkey")
        .join("c", "c_nationkey", "s", "s_nationkey")
        .join("s", "s_nationkey", "n", "n_nationkey")
        .join("n", "n_regionkey", "r", "r_regionkey")
        .group_by("n", "n_name")
        .aggregate("sum", "l", "l_extendedprice", "revenue")
        .build()
    )


@_register("q6")
def q6(db: Database, rng: np.random.Generator) -> Query:
    """Forecasting revenue change: single-table range filters."""
    start = _random_date(rng, 0.1, 0.7)
    quantity = int(rng.integers(24, 26))
    return (
        QueryBuilder("q6")
        .table("lineitem", "l")
        .between("l", "l_shipdate", start, start + 365)
        .filter("l", "l_quantity", "<", quantity)
        .filter("l", "l_discount", ">=", 0.02)
        .filter("l", "l_discount", "<=", 0.09)
        .aggregate("sum", "l", "l_extendedprice", "revenue")
        .build()
    )


@_register("q7")
def q7(db: Database, rng: np.random.Generator) -> Query:
    """Volume shipping: two nations, supplier/lineitem/orders/customer."""
    nation_1 = _choice(rng, NATION_NAMES)
    nation_2 = _choice(rng, NATION_NAMES)
    return (
        QueryBuilder("q7")
        .table("supplier", "s")
        .table("lineitem", "l")
        .table("orders", "o")
        .table("customer", "c")
        .table("nation", "n1")
        .table("nation", "n2")
        .filter("n1", "n_name", "=", nation_1)
        .filter("n2", "n_name", "=", nation_2)
        .join("s", "s_suppkey", "l", "l_suppkey")
        .join("o", "o_orderkey", "l", "l_orderkey")
        .join("c", "c_custkey", "o", "o_custkey")
        .join("s", "s_nationkey", "n1", "n_nationkey")
        .join("c", "c_nationkey", "n2", "n_nationkey")
        .aggregate("sum", "l", "l_extendedprice", "revenue")
        .aggregate("count", output_name="num_lineitems")
        .build()
    )


@_register("q8")
def q8(db: Database, rng: np.random.Generator) -> Query:
    """National market share: the 8-relation join of the paper's Figure 14."""
    return (
        QueryBuilder("q8")
        .table("part", "p")
        .table("supplier", "s")
        .table("lineitem", "l")
        .table("orders", "o")
        .table("customer", "c")
        .table("nation", "n1")
        .table("nation", "n2")
        .table("region", "r")
        .filter("p", "p_type", "=", _choice(rng, TYPES))
        .filter("r", "r_name", "=", _choice(rng, REGION_NAMES))
        .between("o", "o_orderdate", int(DATE_RANGE_DAYS * 0.4), int(DATE_RANGE_DAYS * 0.7))
        .join("p", "p_partkey", "l", "l_partkey")
        .join("s", "s_suppkey", "l", "l_suppkey")
        .join("l", "l_orderkey", "o", "o_orderkey")
        .join("o", "o_custkey", "c", "c_custkey")
        .join("c", "c_nationkey", "n1", "n_nationkey")
        .join("n1", "n_regionkey", "r", "r_regionkey")
        .join("s", "s_nationkey", "n2", "n_nationkey")
        .aggregate("sum", "l", "l_extendedprice", "volume")
        .build()
    )


@_register("q9")
def q9(db: Database, rng: np.random.Generator) -> Query:
    """Product type profit measure: 6-relation join (paper's Figure 14)."""
    brand = _choice(rng, BRANDS)
    return (
        QueryBuilder("q9")
        .table("part", "p")
        .table("supplier", "s")
        .table("lineitem", "l")
        .table("partsupp", "ps")
        .table("orders", "o")
        .table("nation", "n")
        .filter("p", "p_brand", "=", brand)
        .join("s", "s_suppkey", "l", "l_suppkey")
        .join("ps", "ps_suppkey", "l", "l_suppkey")
        .join("ps", "ps_partkey", "l", "l_partkey")
        .join("p", "p_partkey", "l", "l_partkey")
        .join("o", "o_orderkey", "l", "l_orderkey")
        .join("s", "s_nationkey", "n", "n_nationkey")
        .group_by("n", "n_name")
        .aggregate("sum", "l", "l_extendedprice", "sum_profit")
        .build()
    )


@_register("q10")
def q10(db: Database, rng: np.random.Generator) -> Query:
    """Returned item reporting: customer/orders/lineitem/nation."""
    start = _random_date(rng, 0.2, 0.8)
    return (
        QueryBuilder("q10")
        .table("customer", "c")
        .table("orders", "o")
        .table("lineitem", "l")
        .table("nation", "n")
        .between("o", "o_orderdate", start, start + 90)
        .filter("l", "l_returnflag", "=", "R")
        .join("c", "c_custkey", "o", "o_custkey")
        .join("l", "l_orderkey", "o", "o_orderkey")
        .join("c", "c_nationkey", "n", "n_nationkey")
        .group_by("n", "n_name")
        .aggregate("sum", "l", "l_extendedprice", "revenue")
        .build()
    )


@_register("q11")
def q11(db: Database, rng: np.random.Generator) -> Query:
    """Important stock identification: partsupp/supplier/nation."""
    return (
        QueryBuilder("q11")
        .table("partsupp", "ps")
        .table("supplier", "s")
        .table("nation", "n")
        .filter("n", "n_name", "=", _choice(rng, NATION_NAMES))
        .join("ps", "ps_suppkey", "s", "s_suppkey")
        .join("s", "s_nationkey", "n", "n_nationkey")
        .group_by("ps", "ps_partkey")
        .aggregate("sum", "ps", "ps_supplycost", "value")
        .build()
    )


@_register("q12")
def q12(db: Database, rng: np.random.Generator) -> Query:
    """Shipping modes and order priority: orders/lineitem."""
    start = _random_date(rng, 0.1, 0.7)
    return (
        QueryBuilder("q12")
        .table("orders", "o")
        .table("lineitem", "l")
        .filter("l", "l_shipmode", "=", _choice(rng, SHIP_MODES))
        .between("l", "l_receiptdate", start, start + 365)
        .join("o", "o_orderkey", "l", "l_orderkey")
        .group_by("o", "o_orderpriority")
        .aggregate("count", output_name="line_count")
        .build()
    )


@_register("q13")
def q13(db: Database, rng: np.random.Generator) -> Query:
    """Customer distribution: customer left join orders (approximated as inner)."""
    return (
        QueryBuilder("q13")
        .table("customer", "c")
        .table("orders", "o")
        .filter("o", "o_orderpriority", "=", _choice(rng, ORDER_PRIORITIES))
        .join("c", "c_custkey", "o", "o_custkey")
        .group_by("c", "c_nationkey")
        .aggregate("count", output_name="order_count")
        .build()
    )


@_register("q14")
def q14(db: Database, rng: np.random.Generator) -> Query:
    """Promotion effect: lineitem/part over one month."""
    start = _random_date(rng, 0.1, 0.9)
    return (
        QueryBuilder("q14")
        .table("lineitem", "l")
        .table("part", "p")
        .between("l", "l_shipdate", start, start + 30)
        .join("l", "l_partkey", "p", "p_partkey")
        .aggregate("sum", "l", "l_extendedprice", "promo_revenue")
        .aggregate("count", output_name="num_items")
        .build()
    )


@_register("q16")
def q16(db: Database, rng: np.random.Generator) -> Query:
    """Parts/supplier relationship: partsupp/part with part filters."""
    return (
        QueryBuilder("q16")
        .table("partsupp", "ps")
        .table("part", "p")
        .filter("p", "p_brand", "=", _choice(rng, BRANDS))
        .filter("p", "p_size", "<=", int(rng.integers(10, 51)))
        .join("p", "p_partkey", "ps", "ps_partkey")
        .group_by("p", "p_brand")
        .aggregate("count", output_name="supplier_cnt")
        .build()
    )


@_register("q17")
def q17(db: Database, rng: np.random.Generator) -> Query:
    """Small-quantity-order revenue: lineitem/part, brand + container filters.

    The query the paper singles out in Figure 7's footnote for its large
    variance on the skewed database (the brand/container constants select
    very different numbers of parts when the data is skewed).
    """
    return (
        QueryBuilder("q17")
        .table("lineitem", "l")
        .table("part", "p")
        .filter("p", "p_brand", "=", _choice(rng, BRANDS))
        .filter("p", "p_container", "=", _choice(rng, CONTAINERS))
        .filter("l", "l_quantity", "<", int(rng.integers(2, 11)))
        .join("p", "p_partkey", "l", "l_partkey")
        .aggregate("avg", "l", "l_quantity", "avg_quantity")
        .aggregate("sum", "l", "l_extendedprice", "total_price")
        .build()
    )


@_register("q18")
def q18(db: Database, rng: np.random.Generator) -> Query:
    """Large volume customer: customer/orders/lineitem."""
    return (
        QueryBuilder("q18")
        .table("customer", "c")
        .table("orders", "o")
        .table("lineitem", "l")
        .filter("l", "l_quantity", ">", int(rng.integers(44, 50)))
        .join("c", "c_custkey", "o", "o_custkey")
        .join("o", "o_orderkey", "l", "l_orderkey")
        .group_by("c", "c_custkey")
        .aggregate("sum", "l", "l_quantity", "total_quantity")
        .build()
    )


@_register("q19")
def q19(db: Database, rng: np.random.Generator) -> Query:
    """Discounted revenue: lineitem/part (one branch of the official disjunction)."""
    return (
        QueryBuilder("q19")
        .table("lineitem", "l")
        .table("part", "p")
        .filter("p", "p_brand", "=", _choice(rng, BRANDS))
        .filter("p", "p_size", "<=", 15)
        .between("l", "l_quantity", 1, 30)
        .filter("l", "l_shipinstruct", "=", "DELIVER IN PERSON")
        .join("p", "p_partkey", "l", "l_partkey")
        .aggregate("sum", "l", "l_extendedprice", "revenue")
        .build()
    )


@_register("q20")
def q20(db: Database, rng: np.random.Generator) -> Query:
    """Potential part promotion: supplier/nation/partsupp/part (semi-joins flattened)."""
    return (
        QueryBuilder("q20")
        .table("supplier", "s")
        .table("nation", "n")
        .table("partsupp", "ps")
        .table("part", "p")
        .filter("n", "n_name", "=", _choice(rng, NATION_NAMES))
        .filter("p", "p_size", "=", int(rng.integers(1, 51)))
        .join("s", "s_nationkey", "n", "n_nationkey")
        .join("ps", "ps_suppkey", "s", "s_suppkey")
        .join("ps", "ps_partkey", "p", "p_partkey")
        .aggregate("count", output_name="num_suppliers")
        .build()
    )


@_register("q21")
def q21(db: Database, rng: np.random.Generator) -> Query:
    """Suppliers who kept orders waiting: supplier/lineitem/orders/nation.

    The official query's EXISTS/NOT EXISTS self-joins on lineitem are
    approximated by the main join skeleton plus the "late delivery" filter
    (receipt after commit date), which is the part that drives the join
    ordering problem the paper's Figure 14 illustrates.
    """
    return (
        QueryBuilder("q21")
        .table("supplier", "s")
        .table("lineitem", "l1")
        .table("orders", "o")
        .table("nation", "n")
        .filter("n", "n_name", "=", _choice(rng, NATION_NAMES))
        .filter("o", "o_orderstatus", "=", "F")
        .filter("l1", "l_returnflag", "=", "N")
        .join("s", "s_suppkey", "l1", "l_suppkey")
        .join("o", "o_orderkey", "l1", "l_orderkey")
        .join("s", "s_nationkey", "n", "n_nationkey")
        .group_by("s", "s_suppkey")
        .aggregate("count", output_name="numwait")
        .build()
    )


@_register("q22")
def q22(db: Database, rng: np.random.Generator) -> Query:
    """Global sales opportunity: customer/orders (anti-join approximated)."""
    return (
        QueryBuilder("q22")
        .table("customer", "c")
        .table("orders", "o")
        .filter("c", "c_acctbal", ">", 0.0)
        .join("c", "c_custkey", "o", "o_custkey")
        .group_by("c", "c_nationkey")
        .aggregate("count", output_name="numcust")
        .aggregate("sum", "c", "c_acctbal", "totacctbal")
        .build()
    )


# --------------------------------------------------------------------------- #
# Public helpers
# --------------------------------------------------------------------------- #
def make_tpch_query(db: Database, number: int, seed: int = 0) -> Query:
    """Instantiate TPC-H query ``number`` with constants drawn from ``seed``."""
    name = f"q{number}"
    if name not in TPCH_QUERY_TEMPLATES:
        raise KeyError(f"unknown or unsupported TPC-H query {name!r}")
    rng = np.random.default_rng(seed)
    query = TPCH_QUERY_TEMPLATES[name](db, rng)
    return query


def make_tpch_workload(db: Database, seed: int = 0) -> Dict[str, List[Query]]:
    """Instantiate the full TPC-H workload.

    Returns a mapping ``"q3" -> [q3_i0]``: one random instance per template
    (the paper uses 10; instance ``i`` of query ``n`` is
    ``make_tpch_query(db, n, seed * 1000 + n * 17 + i)``).
    """
    workload: Dict[str, List[Query]] = {}
    for number in TPCH_QUERY_NUMBERS:
        query = make_tpch_query(db, number, seed=seed * 1000 + number * 17)
        query.name = f"q{number}_i0"
        workload[f"q{number}"] = [query]
    return workload
