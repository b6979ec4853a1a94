"""A TPC-H-like database generator (uniform and skewed).

The generator reproduces the *shape* of the TPC-H schema — the eight tables,
their key relationships and the attribute kinds the query templates filter on
— at laptop scale.  Two knobs mirror the paper's Section 5.1.1:

* ``scale_factor`` — fraction of the official 1 GB row counts (0.01 keeps
  60 000 ``lineitem`` rows down to 600);
* ``zipf_z`` — skew of the value and foreign-key distributions.  ``z = 0``
  is the uniform database of Figure 4; ``z = 1`` is the skewed database of
  Figure 7, following the Microsoft skewed-TPC-H generator the paper uses.

Dates are stored as integer "days since 1992-01-01" over a seven-year range,
which keeps range predicates simple while preserving their selectivity
structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.storage.catalog import Database
from repro.storage.table import Column, Table, TableSchema

#: Official row counts at scale factor 1 (1 GB).
BASE_ROW_COUNTS = {
    "region": 5,
    "nation": 25,
    "supplier": 10_000,
    "customer": 150_000,
    "part": 200_000,
    "partsupp": 800_000,
    "orders": 1_500_000,
    "lineitem": 6_000_000,
}

#: Number of days in the generated date range (1992-01-01 .. 1998-12-31).
DATE_RANGE_DAYS = 2556

REGION_NAMES = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
NATION_NAMES = [
    "ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA", "FRANCE",
    "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN", "JORDAN", "KENYA",
    "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA", "SAUDI ARABIA",
    "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES",
]
MARKET_SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]
ORDER_PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
ORDER_STATUSES = ["F", "O", "P"]
RETURN_FLAGS = ["A", "N", "R"]
LINE_STATUSES = ["F", "O"]
SHIP_MODES = ["AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"]
SHIP_INSTRUCTS = ["COLLECT COD", "DELIVER IN PERSON", "NONE", "TAKE BACK RETURN"]
BRANDS = [f"Brand#{i}{j}" for i in range(1, 6) for j in range(1, 6)]
TYPES = [
    f"{grade} {finish} {metal}"
    for grade in ("STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO")
    for finish in ("ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED")
    for metal in ("TIN", "NICKEL", "BRASS", "STEEL", "COPPER")
]
CONTAINERS = [
    f"{size} {kind}"
    for size in ("SM", "LG", "MED", "JUMBO", "WRAP")
    for kind in ("CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM")
]


@dataclass(frozen=True)
class TpchConfig:
    """Shape of one generated TPC-H-like database."""

    scale_factor: float = 0.01
    zipf_z: float = 0.0
    seed: int = 0

    def rows(self, table: str) -> int:
        """Scaled row count for ``table`` (with sensible minimums)."""
        base = BASE_ROW_COUNTS[table]
        if table in ("region", "nation"):
            return base
        return max(20, int(base * self.scale_factor))


def _zipf_probabilities(n: int, z: float) -> np.ndarray:
    """Zipf(z) probabilities over ``n`` items (uniform when z == 0)."""
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** (-z) if z > 0 else np.ones(n, dtype=np.float64)
    return weights / weights.sum()


def _skewed_integers(rng: np.random.Generator, n_values: int, size: int, z: float) -> np.ndarray:
    """Draw ``size`` integers in ``[0, n_values)`` with Zipf(z) skew."""
    if z <= 0:
        return rng.integers(0, n_values, size=size, dtype=np.int64)
    probabilities = _zipf_probabilities(n_values, z)
    return rng.choice(n_values, size=size, p=probabilities).astype(np.int64)


def _skewed_choice(
    rng: np.random.Generator, values: Sequence[object], size: int, z: float
) -> np.ndarray:
    """Choose from ``values`` with Zipf(z) skew over their order."""
    indexes = _skewed_integers(rng, len(values), size, z)
    return np.array(values, dtype=object)[indexes]


def generate_tpch_database(
    scale_factor: float = 0.01,
    zipf_z: float = 0.0,
    seed: int = 0,
    analyze: bool = True,
    create_indexes: bool = True,
    create_samples: bool = True,
    sampling_ratio: float = 0.05,
) -> Database:
    """Generate the TPC-H-like database.

    The foreign keys are uniform references when ``zipf_z == 0`` and
    Zipf-skewed otherwise, so that a handful of customers/parts/suppliers
    dominate the fact tables in the skewed configuration — the situation in
    which MCV-based estimates matter most.
    """
    config = TpchConfig(scale_factor=scale_factor, zipf_z=zipf_z, seed=seed)
    rng = np.random.default_rng(seed)
    z = zipf_z
    db = Database(name=f"tpch_sf{scale_factor}_z{zipf_z}")

    # ------------------------------------------------------------------ #
    # region, nation
    # ------------------------------------------------------------------ #
    region_rows = config.rows("region")
    db.create_table(Table(
        TableSchema("region", (Column("r_regionkey", "int"), Column("r_name", "str"))),
        {
            "r_regionkey": np.arange(region_rows, dtype=np.int64),
            "r_name": np.array(REGION_NAMES[:region_rows], dtype=object),
        },
    ))

    nation_rows = config.rows("nation")
    db.create_table(Table(
        TableSchema(
            "nation",
            (Column("n_nationkey", "int"), Column("n_regionkey", "int"), Column("n_name", "str")),
        ),
        {
            "n_nationkey": np.arange(nation_rows, dtype=np.int64),
            "n_regionkey": rng.integers(0, region_rows, size=nation_rows, dtype=np.int64),
            "n_name": np.array(NATION_NAMES[:nation_rows], dtype=object),
        },
    ))

    # ------------------------------------------------------------------ #
    # supplier, customer, part
    # ------------------------------------------------------------------ #
    supplier_rows = config.rows("supplier")
    db.create_table(Table(
        TableSchema(
            "supplier",
            (
                Column("s_suppkey", "int"),
                Column("s_nationkey", "int"),
                Column("s_acctbal", "float"),
            ),
        ),
        {
            "s_suppkey": np.arange(supplier_rows, dtype=np.int64),
            "s_nationkey": _skewed_integers(rng, nation_rows, supplier_rows, z),
            "s_acctbal": rng.uniform(-999.99, 9999.99, size=supplier_rows),
        },
    ))

    customer_rows = config.rows("customer")
    db.create_table(Table(
        TableSchema(
            "customer",
            (
                Column("c_custkey", "int"),
                Column("c_nationkey", "int"),
                Column("c_mktsegment", "str"),
                Column("c_acctbal", "float"),
            ),
        ),
        {
            "c_custkey": np.arange(customer_rows, dtype=np.int64),
            "c_nationkey": _skewed_integers(rng, nation_rows, customer_rows, z),
            "c_mktsegment": _skewed_choice(rng, MARKET_SEGMENTS, customer_rows, z),
            "c_acctbal": rng.uniform(-999.99, 9999.99, size=customer_rows),
        },
    ))

    part_rows = config.rows("part")
    db.create_table(Table(
        TableSchema(
            "part",
            (
                Column("p_partkey", "int"),
                Column("p_brand", "str"),
                Column("p_type", "str"),
                Column("p_size", "int"),
                Column("p_container", "str"),
                Column("p_retailprice", "float"),
            ),
        ),
        {
            "p_partkey": np.arange(part_rows, dtype=np.int64),
            "p_brand": _skewed_choice(rng, BRANDS, part_rows, z),
            "p_type": _skewed_choice(rng, TYPES, part_rows, z),
            "p_size": _skewed_integers(rng, 50, part_rows, z) + 1,
            "p_container": _skewed_choice(rng, CONTAINERS, part_rows, z),
            "p_retailprice": rng.uniform(900.0, 2000.0, size=part_rows),
        },
    ))

    # ------------------------------------------------------------------ #
    # partsupp
    # ------------------------------------------------------------------ #
    partsupp_rows = config.rows("partsupp")
    db.create_table(Table(
        TableSchema(
            "partsupp",
            (
                Column("ps_partkey", "int"),
                Column("ps_suppkey", "int"),
                Column("ps_supplycost", "float"),
                Column("ps_availqty", "int"),
            ),
        ),
        {
            "ps_partkey": _skewed_integers(rng, part_rows, partsupp_rows, z),
            "ps_suppkey": _skewed_integers(rng, supplier_rows, partsupp_rows, z),
            "ps_supplycost": rng.uniform(1.0, 1000.0, size=partsupp_rows),
            "ps_availqty": rng.integers(1, 10_000, size=partsupp_rows, dtype=np.int64),
        },
    ))

    # ------------------------------------------------------------------ #
    # orders, lineitem
    # ------------------------------------------------------------------ #
    orders_rows = config.rows("orders")
    order_dates = _skewed_integers(rng, DATE_RANGE_DAYS, orders_rows, z)
    db.create_table(Table(
        TableSchema(
            "orders",
            (
                Column("o_orderkey", "int"),
                Column("o_custkey", "int"),
                Column("o_orderdate", "int"),
                Column("o_orderpriority", "str"),
                Column("o_orderstatus", "str"),
                Column("o_totalprice", "float"),
            ),
        ),
        {
            "o_orderkey": np.arange(orders_rows, dtype=np.int64),
            "o_custkey": _skewed_integers(rng, customer_rows, orders_rows, z),
            "o_orderdate": order_dates,
            "o_orderpriority": _skewed_choice(rng, ORDER_PRIORITIES, orders_rows, z),
            "o_orderstatus": _skewed_choice(rng, ORDER_STATUSES, orders_rows, z),
            "o_totalprice": rng.uniform(1000.0, 500_000.0, size=orders_rows),
        },
    ))

    lineitem_rows = config.rows("lineitem")
    line_orderkeys = _skewed_integers(rng, orders_rows, lineitem_rows, z)
    ship_delay = rng.integers(1, 122, size=lineitem_rows, dtype=np.int64)
    ship_dates = np.minimum(order_dates[line_orderkeys] + ship_delay, DATE_RANGE_DAYS + 121)
    commit_dates = ship_dates + rng.integers(-30, 31, size=lineitem_rows, dtype=np.int64)
    receipt_dates = ship_dates + rng.integers(1, 31, size=lineitem_rows, dtype=np.int64)
    db.create_table(Table(
        TableSchema(
            "lineitem",
            (
                Column("l_orderkey", "int"),
                Column("l_partkey", "int"),
                Column("l_suppkey", "int"),
                Column("l_quantity", "int"),
                Column("l_extendedprice", "float"),
                Column("l_discount", "float"),
                Column("l_tax", "float"),
                Column("l_returnflag", "str"),
                Column("l_linestatus", "str"),
                Column("l_shipdate", "int"),
                Column("l_commitdate", "int"),
                Column("l_receiptdate", "int"),
                Column("l_shipmode", "str"),
                Column("l_shipinstruct", "str"),
            ),
        ),
        {
            "l_orderkey": line_orderkeys,
            "l_partkey": _skewed_integers(rng, part_rows, lineitem_rows, z),
            "l_suppkey": _skewed_integers(rng, supplier_rows, lineitem_rows, z),
            "l_quantity": rng.integers(1, 51, size=lineitem_rows, dtype=np.int64),
            "l_extendedprice": rng.uniform(900.0, 100_000.0, size=lineitem_rows),
            "l_discount": rng.uniform(0.0, 0.1, size=lineitem_rows).round(2),
            "l_tax": rng.uniform(0.0, 0.08, size=lineitem_rows).round(2),
            "l_returnflag": _skewed_choice(rng, RETURN_FLAGS, lineitem_rows, z),
            "l_linestatus": _skewed_choice(rng, LINE_STATUSES, lineitem_rows, z),
            "l_shipdate": ship_dates,
            "l_commitdate": commit_dates,
            "l_receiptdate": receipt_dates,
            "l_shipmode": _skewed_choice(rng, SHIP_MODES, lineitem_rows, z),
            "l_shipinstruct": _skewed_choice(rng, SHIP_INSTRUCTS, lineitem_rows, z),
        },
    ))

    if create_indexes:
        for table, column in (
            ("nation", "n_nationkey"),
            ("nation", "n_regionkey"),
            ("region", "r_regionkey"),
            ("supplier", "s_suppkey"),
            ("supplier", "s_nationkey"),
            ("customer", "c_custkey"),
            ("customer", "c_nationkey"),
            ("part", "p_partkey"),
            ("partsupp", "ps_partkey"),
            ("partsupp", "ps_suppkey"),
            ("orders", "o_orderkey"),
            ("orders", "o_custkey"),
            ("lineitem", "l_orderkey"),
            ("lineitem", "l_partkey"),
            ("lineitem", "l_suppkey"),
        ):
            db.create_index(table, column)
    if analyze:
        db.analyze()
    if create_samples:
        db.create_samples(ratio=sampling_ratio, seed=seed + 1000)
    return db
