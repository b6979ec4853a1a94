"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.plans.nodes import AggregateNode, JoinNode, PlanNode, ScanNode
from repro.storage.catalog import Database
from repro.storage.table import Column, Table, TableSchema
from repro.workloads.ott import generate_ott_database, make_ott_query

#: The single base seed every test-local random stream derives from.  Tests
#: that need several independent streams pass distinct offsets to
#: ``make_rng``; nothing in the suite seeds ``numpy.random`` ad hoc.
GLOBAL_TEST_SEED = 0


@pytest.fixture
def make_rng():
    """Factory for deterministic per-test generators.

    ``make_rng(offset)`` returns ``np.random.default_rng(GLOBAL_TEST_SEED +
    offset)``; the offset keeps streams that must differ (e.g. build vs probe
    side of a join) independent while the whole suite stays reproducible from
    one seed.
    """

    def factory(offset: int = 0) -> np.random.Generator:
        return np.random.default_rng(GLOBAL_TEST_SEED + offset)

    return factory


@pytest.fixture
def rng(make_rng) -> np.random.Generator:
    """The default deterministic generator (offset 0)."""
    return make_rng()


@pytest.fixture
def small_db(make_rng) -> Database:
    """A tiny two-table database (orders/items style) used across unit tests."""
    db = Database("unit")
    rng = make_rng()
    n_orders = 200
    n_items = 1000
    db.create_table(Table(
        TableSchema("orders", (
            Column("o_id", "int"), Column("o_customer", "int"), Column("o_priority", "str"),
            Column("o_total", "float"),
        )),
        {
            "o_id": np.arange(n_orders),
            "o_customer": rng.integers(0, 50, size=n_orders),
            "o_priority": rng.choice(["HIGH", "LOW", "MEDIUM"], size=n_orders).astype(object),
            "o_total": rng.uniform(10.0, 1000.0, size=n_orders),
        },
    ))
    db.create_table(Table(
        TableSchema("items", (
            Column("i_order", "int"), Column("i_part", "int"), Column("i_quantity", "int"),
            Column("i_price", "float"),
        )),
        {
            "i_order": rng.integers(0, n_orders, size=n_items),
            "i_part": rng.integers(0, 100, size=n_items),
            "i_quantity": rng.integers(1, 10, size=n_items),
            "i_price": rng.uniform(1.0, 100.0, size=n_items),
        },
    ))
    db.create_index("orders", "o_id")
    db.create_index("items", "i_order")
    db.analyze()
    db.create_samples(ratio=0.3, seed=7)
    return db


@pytest.fixture(scope="session")
def ott_db() -> Database:
    """A small OTT database shared by the re-optimization tests."""
    return generate_ott_database(
        num_tables=4, rows_per_table=1500, rows_per_value=30, seed=5, sampling_ratio=0.1
    )


@pytest.fixture(scope="session")
def ott_query(ott_db):
    """An OTT query that is empty (constants differ) over the shared database."""
    return make_ott_query(ott_db, [0, 0, 0, 1], name="ott_empty")


def _left_deep_plan(query, order, methods) -> PlanNode:
    """A hand-built left-deep plan of ``query`` over the aliases in ``order``.

    ``methods`` are cycled over the joins.  Every join carries
    ``query.join_predicates_between(left, right)`` — what the optimizer's
    plans carry — and the aggregate goes on top when ``order`` covers the
    whole query.  Estimates stay zero: nothing the executor does reads them.
    """
    def scan(alias):
        return ScanNode(
            table=query.table_for_alias(alias),
            alias=alias,
            predicates=tuple(query.local_predicates_for(alias)),
        )

    plan: PlanNode = scan(order[0])
    for index, alias in enumerate(order[1:]):
        plan = JoinNode(
            left=plan,
            right=scan(alias),
            method=methods[index % len(methods)],
            predicates=tuple(query.join_predicates_between(plan.relations, {alias})),
        )
    if set(order) == set(query.aliases) and (query.aggregates or query.group_by):
        plan = AggregateNode(
            child=plan,
            group_by=tuple(query.group_by),
            aggregates=tuple(query.aggregates),
        )
    return plan


@pytest.fixture(scope="session")
def left_deep_plan():
    """Factory: ``left_deep_plan(query, order, methods)`` (see above)."""
    return _left_deep_plan
