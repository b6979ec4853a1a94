"""A TPC-DS-like database generator and query set (Appendix A.2 of the paper).

The paper evaluates 29 TPC-DS queries (those supported by its PostgreSQL
prototype) on a 10 GB database and finds little improvement: most queries are
short-running star joins whose cardinality estimates are on track, so
re-optimization rarely changes the plan.  It also constructs a tweaked
variant of Q50 (``Q50'``) whose dimension filters are altered until the plan
does change, cutting the running time roughly in half.

The reproduction keeps that experiment's structure:

* a snowflake schema with two fact tables (``store_sales``, ``store_returns``)
  and the dimension tables the 29 queries touch;
* one query template per paper query number, each a star/snowflake join with
  the dimension filters the official query uses (sub-query constructs are
  flattened to their join skeletons, as for TPC-H);
* the tweaked ``q50_prime`` variant with widened date and store filters.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.sql.ast import Query
from repro.sql.builder import QueryBuilder
from repro.storage.catalog import Database
from repro.storage.table import Column, Table, TableSchema

#: TPC-DS query numbers evaluated by the paper (Figure 19), Q50' added on top.
TPCDS_QUERY_NUMBERS = [
    3, 7, 15, 17, 19, 25, 26, 28, 29, 42, 43, 45, 48, 50, 52, 55, 61, 62,
    65, 69, 72, 73, 84, 85, 90, 91, 93, 96, 99,
]

#: Base row counts loosely following TPC-DS at scale factor 1, scaled down.
BASE_ROW_COUNTS = {
    "date_dim": 1000,
    "item": 2000,
    "customer": 3000,
    "customer_address": 1500,
    "customer_demographics": 1000,
    "household_demographics": 720,
    "store": 40,
    "warehouse": 10,
    "promotion": 100,
    "ship_mode": 20,
    "store_sales": 60_000,
    "store_returns": 6_000,
    "catalog_sales": 30_000,
    "web_sales": 15_000,
}

STATES = ["TX", "CA", "NY", "WA", "IL", "GA", "OH", "MI", "PA", "FL"]
CATEGORIES = ["Books", "Electronics", "Home", "Jewelry", "Music", "Shoes", "Sports", "Women"]
EDUCATION = ["Primary", "Secondary", "College", "2 yr Degree", "4 yr Degree", "Advanced Degree"]
MARITAL = ["S", "M", "D", "W", "U"]
GENDER = ["M", "F"]


def generate_tpcds_database(
    scale: float = 0.2,
    seed: int = 0,
    analyze: bool = True,
    create_samples: bool = True,
    sampling_ratio: float = 0.5,
) -> Database:
    """Generate the TPC-DS-like snowflake database at the given scale."""
    rng = np.random.default_rng(seed)
    db = Database(name=f"tpcds_scale{scale}")

    def rows(table: str) -> int:
        base = BASE_ROW_COUNTS[table]
        if table in ("store", "warehouse", "ship_mode", "promotion"):
            return base
        return max(50, int(base * scale))

    # --------------------------- dimensions --------------------------- #
    n_dates = rows("date_dim")
    db.create_table(Table(
        TableSchema("date_dim", (
            Column("d_date_sk", "int"), Column("d_year", "int"),
            Column("d_moy", "int"), Column("d_dom", "int"), Column("d_qoy", "int"),
        )),
        {
            "d_date_sk": np.arange(n_dates, dtype=np.int64),
            "d_year": 1998 + (np.arange(n_dates) // 366),
            "d_moy": (np.arange(n_dates) // 30) % 12 + 1,
            "d_dom": np.arange(n_dates) % 28 + 1,
            "d_qoy": ((np.arange(n_dates) // 30) % 12) // 3 + 1,
        },
    ))

    n_items = rows("item")
    db.create_table(Table(
        TableSchema("item", (
            Column("i_item_sk", "int"), Column("i_category", "str"),
            Column("i_brand_id", "int"), Column("i_manager_id", "int"),
            Column("i_current_price", "float"),
        )),
        {
            "i_item_sk": np.arange(n_items, dtype=np.int64),
            "i_category": rng.choice(CATEGORIES, size=n_items).astype(object),
            "i_brand_id": rng.integers(1, 100, size=n_items, dtype=np.int64),
            "i_manager_id": rng.integers(1, 100, size=n_items, dtype=np.int64),
            "i_current_price": rng.uniform(1.0, 300.0, size=n_items),
        },
    ))

    n_customers = rows("customer")
    n_addresses = rows("customer_address")
    n_cdemo = rows("customer_demographics")
    n_hdemo = rows("household_demographics")
    db.create_table(Table(
        TableSchema("customer", (
            Column("c_customer_sk", "int"), Column("c_current_addr_sk", "int"),
            Column("c_current_cdemo_sk", "int"), Column("c_current_hdemo_sk", "int"),
            Column("c_birth_year", "int"),
        )),
        {
            "c_customer_sk": np.arange(n_customers, dtype=np.int64),
            "c_current_addr_sk": rng.integers(0, n_addresses, size=n_customers, dtype=np.int64),
            "c_current_cdemo_sk": rng.integers(0, n_cdemo, size=n_customers, dtype=np.int64),
            "c_current_hdemo_sk": rng.integers(0, n_hdemo, size=n_customers, dtype=np.int64),
            "c_birth_year": rng.integers(1930, 2000, size=n_customers, dtype=np.int64),
        },
    ))
    db.create_table(Table(
        TableSchema("customer_address", (
            Column("ca_address_sk", "int"), Column("ca_state", "str"),
            Column("ca_gmt_offset", "int"),
        )),
        {
            "ca_address_sk": np.arange(n_addresses, dtype=np.int64),
            "ca_state": rng.choice(STATES, size=n_addresses).astype(object),
            "ca_gmt_offset": rng.choice([-5, -6, -7, -8], size=n_addresses).astype(np.int64),
        },
    ))
    db.create_table(Table(
        TableSchema("customer_demographics", (
            Column("cd_demo_sk", "int"), Column("cd_gender", "str"),
            Column("cd_marital_status", "str"), Column("cd_education_status", "str"),
        )),
        {
            "cd_demo_sk": np.arange(n_cdemo, dtype=np.int64),
            "cd_gender": rng.choice(GENDER, size=n_cdemo).astype(object),
            "cd_marital_status": rng.choice(MARITAL, size=n_cdemo).astype(object),
            "cd_education_status": rng.choice(EDUCATION, size=n_cdemo).astype(object),
        },
    ))
    db.create_table(Table(
        TableSchema("household_demographics", (
            Column("hd_demo_sk", "int"), Column("hd_dep_count", "int"),
            Column("hd_vehicle_count", "int"),
        )),
        {
            "hd_demo_sk": np.arange(n_hdemo, dtype=np.int64),
            "hd_dep_count": rng.integers(0, 10, size=n_hdemo, dtype=np.int64),
            "hd_vehicle_count": rng.integers(0, 5, size=n_hdemo, dtype=np.int64),
        },
    ))

    n_stores = rows("store")
    db.create_table(Table(
        TableSchema("store", (
            Column("s_store_sk", "int"), Column("s_state", "str"),
            Column("s_number_employees", "int"),
        )),
        {
            "s_store_sk": np.arange(n_stores, dtype=np.int64),
            "s_state": rng.choice(STATES, size=n_stores).astype(object),
            "s_number_employees": rng.integers(200, 300, size=n_stores, dtype=np.int64),
        },
    ))
    n_promos = rows("promotion")
    db.create_table(Table(
        TableSchema("promotion", (
            Column("p_promo_sk", "int"), Column("p_channel_email", "str"),
        )),
        {
            "p_promo_sk": np.arange(n_promos, dtype=np.int64),
            "p_channel_email": rng.choice(["Y", "N"], size=n_promos).astype(object),
        },
    ))
    n_ship_modes = rows("ship_mode")
    db.create_table(Table(
        TableSchema("ship_mode", (
            Column("sm_ship_mode_sk", "int"), Column("sm_type", "str"),
        )),
        {
            "sm_ship_mode_sk": np.arange(n_ship_modes, dtype=np.int64),
            "sm_type": rng.choice(
                ["EXPRESS", "OVERNIGHT", "REGULAR", "TWO DAY", "LIBRARY"], size=n_ship_modes
            ).astype(object),
        },
    ))
    n_warehouses = rows("warehouse")
    db.create_table(Table(
        TableSchema("warehouse", (
            Column("w_warehouse_sk", "int"), Column("w_state", "str"),
        )),
        {
            "w_warehouse_sk": np.arange(n_warehouses, dtype=np.int64),
            "w_state": rng.choice(STATES, size=n_warehouses).astype(object),
        },
    ))

    # ----------------------------- facts ------------------------------ #
    def fact_columns(n: int) -> Dict[str, np.ndarray]:
        return {
            "sold_date_sk": rng.integers(0, n_dates, size=n, dtype=np.int64),
            "item_sk": rng.integers(0, n_items, size=n, dtype=np.int64),
            "customer_sk": rng.integers(0, n_customers, size=n, dtype=np.int64),
            "store_sk": rng.integers(0, n_stores, size=n, dtype=np.int64),
            "promo_sk": rng.integers(0, n_promos, size=n, dtype=np.int64),
            "cdemo_sk": rng.integers(0, n_cdemo, size=n, dtype=np.int64),
            "hdemo_sk": rng.integers(0, n_hdemo, size=n, dtype=np.int64),
            "quantity": rng.integers(1, 100, size=n, dtype=np.int64),
            "sales_price": rng.uniform(1.0, 300.0, size=n),
            "net_profit": rng.uniform(-100.0, 300.0, size=n),
        }

    n_ss = rows("store_sales")
    ss = fact_columns(n_ss)
    db.create_table(Table(
        TableSchema("store_sales", (
            Column("ss_sold_date_sk", "int"), Column("ss_item_sk", "int"),
            Column("ss_customer_sk", "int"), Column("ss_store_sk", "int"),
            Column("ss_promo_sk", "int"), Column("ss_cdemo_sk", "int"),
            Column("ss_hdemo_sk", "int"), Column("ss_ticket_number", "int"),
            Column("ss_quantity", "int"), Column("ss_sales_price", "float"),
            Column("ss_net_profit", "float"),
        )),
        {
            "ss_sold_date_sk": ss["sold_date_sk"], "ss_item_sk": ss["item_sk"],
            "ss_customer_sk": ss["customer_sk"], "ss_store_sk": ss["store_sk"],
            "ss_promo_sk": ss["promo_sk"], "ss_cdemo_sk": ss["cdemo_sk"],
            "ss_hdemo_sk": ss["hdemo_sk"],
            "ss_ticket_number": np.arange(n_ss, dtype=np.int64),
            "ss_quantity": ss["quantity"], "ss_sales_price": ss["sales_price"],
            "ss_net_profit": ss["net_profit"],
        },
    ))

    n_sr = rows("store_returns")
    # Returns reference a subset of the sales tickets (FK into store_sales).
    returned_tickets = rng.integers(0, n_ss, size=n_sr, dtype=np.int64)
    db.create_table(Table(
        TableSchema("store_returns", (
            Column("sr_returned_date_sk", "int"), Column("sr_item_sk", "int"),
            Column("sr_customer_sk", "int"), Column("sr_ticket_number", "int"),
            Column("sr_return_amt", "float"),
        )),
        {
            "sr_returned_date_sk": rng.integers(0, n_dates, size=n_sr, dtype=np.int64),
            "sr_item_sk": ss["item_sk"][returned_tickets],
            "sr_customer_sk": ss["customer_sk"][returned_tickets],
            "sr_ticket_number": returned_tickets,
            "sr_return_amt": rng.uniform(1.0, 300.0, size=n_sr),
        },
    ))

    n_cs = rows("catalog_sales")
    cs = fact_columns(n_cs)
    db.create_table(Table(
        TableSchema("catalog_sales", (
            Column("cs_sold_date_sk", "int"), Column("cs_item_sk", "int"),
            Column("cs_bill_customer_sk", "int"), Column("cs_warehouse_sk", "int"),
            Column("cs_ship_mode_sk", "int"), Column("cs_quantity", "int"),
            Column("cs_sales_price", "float"),
        )),
        {
            "cs_sold_date_sk": cs["sold_date_sk"], "cs_item_sk": cs["item_sk"],
            "cs_bill_customer_sk": cs["customer_sk"],
            "cs_warehouse_sk": rng.integers(0, n_warehouses, size=n_cs, dtype=np.int64),
            "cs_ship_mode_sk": rng.integers(0, n_ship_modes, size=n_cs, dtype=np.int64),
            "cs_quantity": cs["quantity"], "cs_sales_price": cs["sales_price"],
        },
    ))

    n_ws = rows("web_sales")
    ws = fact_columns(n_ws)
    db.create_table(Table(
        TableSchema("web_sales", (
            Column("ws_sold_date_sk", "int"), Column("ws_item_sk", "int"),
            Column("ws_bill_customer_sk", "int"), Column("ws_quantity", "int"),
            Column("ws_sales_price", "float"),
        )),
        {
            "ws_sold_date_sk": ws["sold_date_sk"], "ws_item_sk": ws["item_sk"],
            "ws_bill_customer_sk": ws["customer_sk"],
            "ws_quantity": ws["quantity"], "ws_sales_price": ws["sales_price"],
        },
    ))

    for table, column in (
        ("date_dim", "d_date_sk"), ("item", "i_item_sk"), ("customer", "c_customer_sk"),
        ("customer_address", "ca_address_sk"), ("customer_demographics", "cd_demo_sk"),
        ("household_demographics", "hd_demo_sk"), ("store", "s_store_sk"),
        ("promotion", "p_promo_sk"), ("warehouse", "w_warehouse_sk"),
        ("ship_mode", "sm_ship_mode_sk"),
        ("store_sales", "ss_sold_date_sk"), ("store_sales", "ss_item_sk"),
        ("store_sales", "ss_customer_sk"), ("store_sales", "ss_ticket_number"),
        ("store_returns", "sr_ticket_number"), ("store_returns", "sr_item_sk"),
        ("catalog_sales", "cs_sold_date_sk"), ("catalog_sales", "cs_item_sk"),
        ("web_sales", "ws_sold_date_sk"), ("web_sales", "ws_item_sk"),
    ):
        db.create_index(table, column)
    if analyze:
        db.analyze()
    if create_samples:
        db.create_samples(ratio=sampling_ratio, seed=seed + 1000)
    return db


# --------------------------------------------------------------------------- #
# Query templates
# --------------------------------------------------------------------------- #
def _star(
    name: str,
    *,
    dims: Mapping[str, Tuple[str, str, str]],
    filters: Sequence[Tuple[str, str, str, object]],
    aggregates: Sequence[Tuple[str, str, str, str]],
    group_by: Sequence[Tuple[str, str]] = (),
) -> Callable[["Database", np.random.Generator], Query]:
    """Build a star-join template over ``store_sales`` declaratively.

    ``dims`` maps a dimension alias to ``(table, fact_column, dim_column)``;
    ``filters`` is a list of ``(alias, column, op, value)``.
    """

    def template(db: Database, rng: np.random.Generator) -> Query:
        builder = QueryBuilder(name)
        builder.table("store_sales", "ss")
        for alias, (table, fact_column, dim_column) in dims.items():
            builder.table(table, alias)
            builder.join("ss", fact_column, alias, dim_column)
        for alias, column, op, value in filters:
            resolved = value(rng) if callable(value) else value
            builder.filter(alias, column, op, resolved)
        for func, alias, column, output in aggregates:
            builder.aggregate(func, alias, column, output)
        for alias, column in group_by:
            builder.group_by(alias, column)
        return builder.build()

    return template


TPCDS_QUERY_TEMPLATES: Dict[str, Callable] = {}


def _register_ds(name: str, template: Callable) -> None:
    TPCDS_QUERY_TEMPLATES[name] = template


def _year(rng: np.random.Generator) -> int:
    return int(rng.integers(1998, 2001))


def _month(rng: np.random.Generator) -> int:
    return int(rng.integers(1, 13))


def _category(rng: np.random.Generator) -> str:
    return str(rng.choice(CATEGORIES))


def _state(rng: np.random.Generator) -> str:
    return str(rng.choice(STATES))


_DATE_DIM = {"d": ("date_dim", "ss_sold_date_sk", "d_date_sk")}
_ITEM_DIM = {"i": ("item", "ss_item_sk", "i_item_sk")}
_STORE_DIM = {"s": ("store", "ss_store_sk", "s_store_sk")}
_CUSTOMER_DIM = {"c": ("customer", "ss_customer_sk", "c_customer_sk")}
_CDEMO_DIM = {"cd": ("customer_demographics", "ss_cdemo_sk", "cd_demo_sk")}
_HDEMO_DIM = {"hd": ("household_demographics", "ss_hdemo_sk", "hd_demo_sk")}
_PROMO_DIM = {"p": ("promotion", "ss_promo_sk", "p_promo_sk")}

_SUM_PRICE = [("sum", "ss", "ss_sales_price", "total_sales"), ("count", None, None, "cnt")]

# Reporting-style star joins (date + item, various filters).
for number, extra_dims, filters, group in (
    (3, {**_DATE_DIM, **_ITEM_DIM}, [("d", "d_moy", "=", _month), ("i", "i_manager_id", "=", lambda r: int(r.integers(1, 100)))], (("d", "d_year"),)),
    (42, {**_DATE_DIM, **_ITEM_DIM}, [("d", "d_moy", "=", _month), ("i", "i_category", "=", _category)], (("i", "i_category"),)),
    (52, {**_DATE_DIM, **_ITEM_DIM}, [("d", "d_moy", "=", _month), ("d", "d_year", "=", _year)], (("i", "i_brand_id"),)),
    (55, {**_DATE_DIM, **_ITEM_DIM}, [("d", "d_moy", "=", _month), ("d", "d_year", "=", _year), ("i", "i_manager_id", "=", lambda r: int(r.integers(1, 100)))], (("i", "i_brand_id"),)),
    (43, {**_DATE_DIM, **_STORE_DIM}, [("d", "d_year", "=", _year), ("s", "s_state", "=", _state)], (("s", "s_state"),)),
    (62, {**_DATE_DIM, **_STORE_DIM}, [("d", "d_moy", "=", _month)], (("s", "s_state"),)),
    (73, {**_DATE_DIM, **_STORE_DIM, **_HDEMO_DIM}, [("d", "d_year", "=", _year), ("hd", "hd_dep_count", "=", lambda r: int(r.integers(0, 10)))], ()),
    (90, {**_DATE_DIM, **_HDEMO_DIM}, [("hd", "hd_dep_count", "=", lambda r: int(r.integers(0, 10)))], ()),
    (96, {**_DATE_DIM, **_STORE_DIM, **_HDEMO_DIM}, [("hd", "hd_dep_count", "=", lambda r: int(r.integers(0, 10))), ("s", "s_state", "=", _state)], ()),
    (19, {**_DATE_DIM, **_ITEM_DIM, **_CUSTOMER_DIM}, [("d", "d_moy", "=", _month), ("d", "d_year", "=", _year), ("i", "i_manager_id", "=", lambda r: int(r.integers(1, 100)))], (("i", "i_brand_id"),)),
    (7, {**_DATE_DIM, **_ITEM_DIM, **_CDEMO_DIM, **_PROMO_DIM}, [("cd", "cd_gender", "=", lambda r: str(r.choice(GENDER))), ("cd", "cd_marital_status", "=", lambda r: str(r.choice(MARITAL))), ("d", "d_year", "=", _year)], (("i", "i_item_sk"),)),
    (26, {**_DATE_DIM, **_ITEM_DIM, **_CDEMO_DIM, **_PROMO_DIM}, [("cd", "cd_education_status", "=", lambda r: str(r.choice(EDUCATION))), ("d", "d_year", "=", _year)], (("i", "i_item_sk"),)),
    (61, {**_DATE_DIM, **_ITEM_DIM, **_STORE_DIM, **_PROMO_DIM}, [("d", "d_year", "=", _year), ("i", "i_category", "=", _category), ("p", "p_channel_email", "=", "Y")], ()),
    (65, {**_DATE_DIM, **_ITEM_DIM, **_STORE_DIM}, [("d", "d_qoy", "=", lambda r: int(r.integers(1, 5)))], (("s", "s_store_sk"),)),
    (72, {**_DATE_DIM, **_ITEM_DIM, **_HDEMO_DIM, **_CDEMO_DIM}, [("d", "d_year", "=", _year), ("hd", "hd_vehicle_count", "=", lambda r: int(r.integers(0, 5)))], ()),
    (28, {}, [("ss", "ss_quantity", "<=", lambda r: int(r.integers(5, 25)))], ()),
    (48, {**_DATE_DIM, **_STORE_DIM, **_CDEMO_DIM}, [("cd", "cd_marital_status", "=", lambda r: str(r.choice(MARITAL))), ("d", "d_year", "=", _year)], ()),
    (91, {**_DATE_DIM, **_CUSTOMER_DIM, **_HDEMO_DIM}, [("d", "d_moy", "=", _month), ("d", "d_year", "=", _year)], ()),
    (45, {**_DATE_DIM, **_ITEM_DIM, **_CUSTOMER_DIM}, [("d", "d_qoy", "=", lambda r: int(r.integers(1, 5))), ("d", "d_year", "=", _year)], ()),
    (50, {**_DATE_DIM, **_STORE_DIM}, [("d", "d_year", "=", _year), ("d", "d_moy", "=", _month)], (("s", "s_state"),)),
):
    _register_ds(f"q{number}", _star(f"q{number}", dims=extra_dims, filters=filters, aggregates=_SUM_PRICE, group_by=group))


def _q50_prime(db: Database, rng: np.random.Generator) -> Query:
    """The paper's tweaked Q50 variant: store_sales ⋈ store_returns + dimensions.

    Joining the two fact tables on the ticket number is what dominates the
    running time; the tweaked dimension filters change the estimates enough
    for re-optimization to restructure the access paths (Appendix A.2).
    """
    return (
        QueryBuilder("q50_prime")
        .table("store_sales", "ss")
        .table("store_returns", "sr")
        .table("date_dim", "d1")
        .table("date_dim", "d2")
        .table("store", "s")
        .join("ss", "ss_ticket_number", "sr", "sr_ticket_number")
        .join("ss", "ss_item_sk", "sr", "sr_item_sk")
        .join("ss", "ss_sold_date_sk", "d1", "d_date_sk")
        .join("sr", "sr_returned_date_sk", "d2", "d_date_sk")
        .join("ss", "ss_store_sk", "s", "s_store_sk")
        .filter("d2", "d_year", "=", _year(rng))
        .filter("d2", "d_moy", "=", _month(rng))
        .filter("s", "s_state", "=", _state(rng))
        .group_by("s", "s_state")
        .aggregate("count", output_name="num_returns")
        .build()
    )


def _q17(db: Database, rng: np.random.Generator) -> Query:
    """Q17-style: sales joined with returns and catalog sales across quarters."""
    return (
        QueryBuilder("q17")
        .table("store_sales", "ss")
        .table("store_returns", "sr")
        .table("catalog_sales", "cs")
        .table("date_dim", "d1")
        .table("item", "i")
        .join("ss", "ss_ticket_number", "sr", "sr_ticket_number")
        .join("ss", "ss_item_sk", "sr", "sr_item_sk")
        .join("sr", "sr_customer_sk", "cs", "cs_bill_customer_sk")
        .join("sr", "sr_item_sk", "cs", "cs_item_sk")
        .join("ss", "ss_sold_date_sk", "d1", "d_date_sk")
        .join("ss", "ss_item_sk", "i", "i_item_sk")
        .filter("d1", "d_qoy", "=", int(rng.integers(1, 5)))
        .group_by("i", "i_category")
        .aggregate("count", output_name="cnt")
        .aggregate("avg", "ss", "ss_quantity", "avg_quantity")
        .build()
    )


def _q25(db: Database, rng: np.random.Generator) -> Query:
    """Q25/Q29-style: sales/returns/catalog joined through customer and item."""
    return (
        QueryBuilder("q25")
        .table("store_sales", "ss")
        .table("store_returns", "sr")
        .table("catalog_sales", "cs")
        .table("item", "i")
        .table("store", "s")
        .join("ss", "ss_ticket_number", "sr", "sr_ticket_number")
        .join("ss", "ss_item_sk", "sr", "sr_item_sk")
        .join("sr", "sr_customer_sk", "cs", "cs_bill_customer_sk")
        .join("ss", "ss_item_sk", "i", "i_item_sk")
        .join("ss", "ss_store_sk", "s", "s_store_sk")
        .filter("s", "s_state", "=", _state(rng))
        .group_by("i", "i_category")
        .aggregate("sum", "ss", "ss_net_profit", "profit")
        .build()
    )


def _q15(db: Database, rng: np.random.Generator) -> Query:
    """Q15-style: catalog sales by customer address and quarter."""
    return (
        QueryBuilder("q15")
        .table("catalog_sales", "cs")
        .table("customer", "c")
        .table("customer_address", "ca")
        .table("date_dim", "d")
        .join("cs", "cs_bill_customer_sk", "c", "c_customer_sk")
        .join("c", "c_current_addr_sk", "ca", "ca_address_sk")
        .join("cs", "cs_sold_date_sk", "d", "d_date_sk")
        .filter("d", "d_qoy", "=", int(rng.integers(1, 5)))
        .filter("d", "d_year", "=", _year(rng))
        .group_by("ca", "ca_state")
        .aggregate("sum", "cs", "cs_sales_price", "total")
        .build()
    )


def _q69(db: Database, rng: np.random.Generator) -> Query:
    """Q69/Q84/Q85-style: demographics-heavy customer profiling join."""
    return (
        QueryBuilder("q69")
        .table("customer", "c")
        .table("customer_address", "ca")
        .table("customer_demographics", "cd")
        .table("store_sales", "ss")
        .table("date_dim", "d")
        .join("c", "c_current_addr_sk", "ca", "ca_address_sk")
        .join("c", "c_current_cdemo_sk", "cd", "cd_demo_sk")
        .join("ss", "ss_customer_sk", "c", "c_customer_sk")
        .join("ss", "ss_sold_date_sk", "d", "d_date_sk")
        .filter("ca", "ca_state", "=", _state(rng))
        .filter("d", "d_year", "=", _year(rng))
        .group_by("cd", "cd_education_status")
        .aggregate("count", output_name="cnt")
        .build()
    )


def _q99(db: Database, rng: np.random.Generator) -> Query:
    """Q99-style: catalog sales by warehouse and ship mode."""
    return (
        QueryBuilder("q99")
        .table("catalog_sales", "cs")
        .table("warehouse", "w")
        .table("ship_mode", "sm")
        .table("date_dim", "d")
        .join("cs", "cs_warehouse_sk", "w", "w_warehouse_sk")
        .join("cs", "cs_ship_mode_sk", "sm", "sm_ship_mode_sk")
        .join("cs", "cs_sold_date_sk", "d", "d_date_sk")
        .filter("d", "d_moy", "=", _month(rng))
        .group_by("sm", "sm_type")
        .aggregate("count", output_name="cnt")
        .build()
    )


def _q93(db: Database, rng: np.random.Generator) -> Query:
    """Q93-style: sales net of returns per customer."""
    return (
        QueryBuilder("q93")
        .table("store_sales", "ss")
        .table("store_returns", "sr")
        .join("ss", "ss_ticket_number", "sr", "sr_ticket_number")
        .join("ss", "ss_item_sk", "sr", "sr_item_sk")
        .group_by("ss", "ss_customer_sk")
        .aggregate("sum", "ss", "ss_sales_price", "total")
        .build()
    )


# Map the remaining paper query numbers onto the closest structural template.
_register_ds("q17", _q17)
_register_ds("q25", _q25)
_register_ds("q29", _q25)
_register_ds("q15", _q15)
_register_ds("q45", TPCDS_QUERY_TEMPLATES.get("q45", _q15))
_register_ds("q69", _q69)
_register_ds("q84", _q69)
_register_ds("q85", _q69)
_register_ds("q99", _q99)
_register_ds("q93", _q93)
_register_ds("q50_prime", _q50_prime)


def make_tpcds_query(db: Database, name: str, seed: int = 0) -> Query:
    """Instantiate TPC-DS query ``name`` (e.g. ``"q3"`` or ``"q50_prime"``)."""
    if name not in TPCDS_QUERY_TEMPLATES:
        raise KeyError(f"unknown or unsupported TPC-DS query {name!r}")
    rng = np.random.default_rng(seed)
    query = TPCDS_QUERY_TEMPLATES[name](db, rng)
    query.name = name
    return query


def make_tpcds_workload(db: Database, seed: int = 0) -> List[Query]:
    """Instantiate the paper's 29-query TPC-DS workload plus Q50'."""
    queries: List[Query] = []
    for number in TPCDS_QUERY_NUMBERS:
        name = f"q{number}"
        queries.append(make_tpcds_query(db, name, seed=seed * 100 + number))
    queries.append(make_tpcds_query(db, "q50_prime", seed=seed * 100 + 50))
    return queries
