"""Plan-independence at full strength.

One float-``SUM`` group-by and one bare projection, executed under every
connected left-deep join order of a star query crossed with forced
hash / merge / nested-loop mixes, must come back byte-identical through
``QueryService`` and ``ShardedQueryService`` (1-4 shards, every shard on a
different plan).  This is
the case a half-applied dead-column elimination breaks for the projection:
if one join method kept a key another dropped, two plans would reach the
canonical sort with different key sets.  The float sum needs no sort: it is
correctly rounded in any row order.

Also here: the one order-sensitivity classification (only bare projections
reach the canonical sort; the coordinator merges partials for
``COUNT``/``MIN``/``MAX`` only) and the pin on which columns a star
projection's canonical sort receives.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np
import pytest

import repro.executor.executor as executor_module
import repro.executor.materialization as materialization_module
from repro.executor.materialization import needs_canonical_order
from repro.plans.nodes import JoinMethod
from repro.service import QueryService, ServiceSettings, ShardedQueryService, ShardingSpec
from repro.sql.builder import QueryBuilder
from repro.storage.catalog import Database
from repro.storage.table import Column, Table, TableSchema

H, M, N = JoinMethod.HASH_JOIN, JoinMethod.MERGE_JOIN, JoinMethod.NESTED_LOOP
METHOD_MIXES = ([H], [M], [N], [H, M, N], [N, H, M], [M, N, H])
SPEC = ShardingSpec(partitioned={"fact": "k0", "dim0": "k"})


@pytest.fixture(scope="module")
def db() -> Database:
    rng = np.random.default_rng(15)
    database = Database("independence")
    fact_rows, dim_rows = 600, 40
    database.create_table(Table(
        TableSchema("fact", (
            Column("k0", "int"), Column("k1", "int"), Column("k2", "int"),
            Column("g", "int"), Column("q", "int"), Column("label", "str"), Column("v", "float"),
        )),
        {
            "k0": rng.integers(0, dim_rows, size=fact_rows),
            "k1": rng.integers(0, dim_rows, size=fact_rows),
            "k2": rng.integers(0, dim_rows, size=fact_rows),
            "g": rng.integers(0, 7, size=fact_rows),
            "q": rng.integers(0, 50, size=fact_rows),
            "label": rng.choice(["red", "green", "blue", "grey"], size=fact_rows).astype(object),
            # Magnitudes far apart: any change of accumulation order shows.
            "v": rng.uniform(0.0, 1.0, size=fact_rows) * 10.0 ** rng.integers(-6, 7, size=fact_rows),
        },
    ))
    for index in range(3):
        database.create_table(Table(
            TableSchema(f"dim{index}", (
                Column("k", "int"), Column("payload", "int"),
                Column("name", "str"), Column("w", "float"),
            )),
            {
                "k": rng.permutation(dim_rows),
                "payload": rng.integers(0, 1000, size=dim_rows),
                "name": rng.choice(["north", "south", "east"], size=dim_rows).astype(object),
                "w": rng.uniform(0.0, 1.0, size=dim_rows),
            },
        ))
    database.analyze()
    database.create_samples(ratio=0.5, seed=15)
    return database


def star(name: str) -> QueryBuilder:
    builder = QueryBuilder(name).table("fact", "f")
    for index in range(3):
        builder.table(f"dim{index}", f"d{index}").join("f", f"k{index}", f"d{index}", "k")
    return builder.filter("d1", "payload", "<", 800)


FLOAT_SUM = (
    star("float_sum").group_by("f", "g")
    .aggregate("sum", "f", "v", "total").aggregate("avg", "d2", "w", "mean_w")
    .aggregate("count", output_name="n").build()
)
PROJECTION = star("projection").select("f", "label").select("d0", "name").select("f", "v").build()
INT_SUM = (
    star("int_sum").group_by("d0", "name")
    .aggregate("sum", "f", "q", "total").aggregate("avg", "f", "q", "mean_q").build()
)
ORDERS = [
    list(order) for order in permutations(["f", "d0", "d1", "d2"]) if "f" in order[:2]
]


@pytest.fixture(scope="module")
def plans(left_deep_plan):
    """query name -> every join order, each under a rotating method mix plus
    the three single-method plans of the first order."""
    def build(query):
        built = [
            left_deep_plan(query, order, METHOD_MIXES[index % len(METHOD_MIXES)])
            for index, order in enumerate(ORDERS)
        ]
        return built + [left_deep_plan(query, ORDERS[-1], mix) for mix in METHOD_MIXES[:3]]

    return {query.name: build(query) for query in (FLOAT_SUM, PROJECTION)}


def output_bytes(columns):
    """Column names, dtypes and raw bytes (values for object columns)."""
    arrays = [(name, np.asarray(column)) for name, column in columns.items()]
    return [
        (name, str(array.dtype), array.tolist() if array.dtype == object else array.tobytes())
        for name, array in arrays
    ]


@pytest.fixture(scope="module")
def reference(db, plans):
    """What one fixed plan returns through the single-node service."""
    with QueryService(db) as service:
        return {
            query.name: output_bytes(service._execute_plan(plans[query.name][0], query).columns)
            for query in (FLOAT_SUM, PROJECTION)
        }


@pytest.mark.parametrize("query", [FLOAT_SUM, PROJECTION], ids=lambda query: query.name)
class TestByteIdenticalUnderEveryPlan:
    def test_query_service(self, db, plans, reference, query):
        assert len(plans[query.name]) == 15
        with QueryService(db) as service:
            for plan in plans[query.name]:
                result = service._execute_plan(plan, query)
                assert result.num_rows > 0
                assert output_bytes(result.columns) == reference[query.name], plan.describe()

    @pytest.mark.parametrize("num_shards", [1, 2, 3, 4])
    def test_sharded_service_with_a_different_plan_per_shard(
        self, db, plans, reference, query, num_shards, monkeypatch
    ):
        settings = ServiceSettings(use_result_cache=False)
        with ShardedQueryService(db, num_shards=num_shards, spec=SPEC, settings=settings) as service:
            for start in range(0, len(plans[query.name]), 3):
                for shard_id, shard in enumerate(service.shards):
                    plan = plans[query.name][(start + shard_id) % len(plans[query.name])]
                    monkeypatch.setattr(
                        shard, "_plan_for",
                        lambda prepared, bound, trace, plan=plan: (plan, "fresh", None),
                    )
                result = service.execute(query)
                assert result.source == "scatter_gather"
                assert output_bytes(result.execution.columns) == reference[query.name], (
                    num_shards, start
                )


class TestOneOrderSensitivityClassification:
    def test_only_projections_need_canonical_order(self):
        assert not needs_canonical_order(INT_SUM)
        assert not needs_canonical_order(FLOAT_SUM)
        assert needs_canonical_order(PROJECTION)
        count_star = star("count").aggregate("count", output_name="n").build()
        keys_only = star("keys").group_by("f", "g").build()
        assert not needs_canonical_order(count_star)
        assert not needs_canonical_order(keys_only)

    def test_coordinator_merges_partials_for_count_min_max_only(self, db):
        extremes = (
            star("extremes").group_by("f", "g").aggregate("count", output_name="n")
            .aggregate("min", "f", "v", "lo").aggregate("max", "d0", "name", "hi").build()
        )
        with ShardedQueryService(db, num_shards=2, spec=SPEC) as service:
            assert service.execute(extremes).source == "scatter_partial"
            for query in (INT_SUM, FLOAT_SUM):
                assert service.execute(query).source == "scatter_gather"

    def test_no_aggregate_reaches_the_canonical_sort(self, db, monkeypatch):
        def refuse(relation, live=None):
            raise AssertionError("an aggregate's input was canonically sorted")

        monkeypatch.setattr(executor_module, "canonicalize_relation", refuse)
        for query in (INT_SUM, FLOAT_SUM):
            with QueryService(db) as service:
                served = service.execute(query)
            with ShardedQueryService(db, num_shards=2, spec=SPEC) as sharded:
                scattered = sharded.execute(query)
            assert scattered.source == "scatter_gather"
            assert output_bytes(scattered.execution.columns) == output_bytes(
                served.execution.columns
            )


class TestCanonicalSortKeyCount:
    def test_star_projection_sorts_by_its_output_columns_only(self, db, monkeypatch):
        """A star projection joins on four or more key columns and must sort
        by exactly the two it outputs — the pin that fails if dead join keys
        ever reach the canonical sort again.  The aggregate star template
        (group key + one float sum) reaches no sort at all."""
        seen = []
        original = materialization_module.canonical_row_order

        def record(relation):
            seen.append(sorted(relation))
            return original(relation)

        monkeypatch.setattr(materialization_module, "canonical_row_order", record)
        template = (
            star("star").group_by("f", "g")
            .aggregate("sum", "f", "v", "total").aggregate("count", output_name="n").build()
        )
        projection = star("star_rows").select("f", "g").select("f", "v").build()
        with QueryService(db) as service:
            service.execute(template)
            service.execute(projection)
        with ShardedQueryService(db, num_shards=2, spec=SPEC) as sharded:
            sharded.execute(template)
            sharded.execute(projection)
        assert seen == [["f.g", "f.v"]] * 2


@pytest.mark.parametrize("query", [FLOAT_SUM, PROJECTION], ids=lambda query: query.name)
def test_ordering_rows_adds_no_plan_node(db, plans, query):
    """A served order-sensitive request reports the nodes, rows and cost the
    plan ran, exactly as ``Executor.execute_plan`` does: the canonical order
    is part of the output stage, not an extra node re-counting the join
    result (which inflated ``plan_work_rows``)."""
    plan = plans[query.name][0]
    with QueryService(db) as service:
        served = service._execute_plan(plan, query)
        direct = service._make_executor().execute_plan(plan, query)
    assert [
        (node.kind, node.relations, node.actual_rows) for node in served.node_executions
    ] == [(node.kind, node.relations, node.actual_rows) for node in direct.node_executions]
    assert served.simulated_cost == direct.simulated_cost
