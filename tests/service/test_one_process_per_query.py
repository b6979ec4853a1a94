"""A sharded service runs every shard in the coordinator's process.

A 2-shard :class:`ShardedQueryService` serves a star join with a float
``SUM`` and a ``GROUP BY``, and every OTT, TPC-H and TPC-DS workload query,
without starting a child process or publishing a shared-memory segment, and
returns exactly the bytes a single-node :class:`QueryService` returns.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.relalg import shm_dir_segments
from repro.service import QueryService, ServiceSettings, ShardedQueryService, ShardingSpec
from repro.sql.builder import QueryBuilder
from repro.storage.catalog import Database
from repro.storage.table import Column, Table, TableSchema
from repro.workloads.ott import generate_ott_database, make_ott_query
from repro.workloads.tpcds import generate_tpcds_database, make_tpcds_workload
from repro.workloads.tpch import generate_tpch_database
from repro.workloads.tpch_queries import make_tpch_workload

FACT_ROWS = 40_000
DIM_ROWS = 16_384


def _star_db(rng: np.random.Generator) -> Database:
    db = Database("star")
    fact = {
        "k0": rng.integers(0, DIM_ROWS, size=FACT_ROWS),
        "k1": rng.integers(0, DIM_ROWS, size=FACT_ROWS),
        "g": rng.integers(0, 500, size=FACT_ROWS),
        "v": rng.uniform(0.0, 100.0, size=FACT_ROWS),
    }
    db.create_table(Table(TableSchema("fact", (
        Column("k0", "int"), Column("k1", "int"), Column("g", "int"), Column("v", "float"),
    )), fact))
    for name in ("dim0", "dim1"):
        db.create_table(Table(
            TableSchema(name, (Column("k", "int"), Column("payload", "int"))),
            {"k": rng.permutation(DIM_ROWS), "payload": rng.integers(0, 1000, size=DIM_ROWS)},
        ))
    db.analyze()
    return db


def _star_template():
    return (
        QueryBuilder("star")
        .table("fact", "f").table("dim0", "d0").table("dim1", "d1")
        .join("f", "k0", "d0", "k")
        .join("f", "k1", "d1", "k")
        .filter_param("d0", "payload", "<")
        .group_by("f", "g")
        .aggregate("sum", "f", "v", "total")
        .aggregate("count", output_name="n")
        .build()
    )


def _assert_same_columns(got, want) -> None:
    assert got.num_rows == want.num_rows
    assert list(got) == list(want)
    for name in want:
        assert got[name].dtype == want[name].dtype, name
        if want[name].dtype == object:
            assert got[name].tolist() == want[name].tolist(), name
        else:
            assert got[name].tobytes() == want[name].tobytes(), name


def _serve_on_both(db, spec, requests) -> list:
    """Serve ``requests`` sharded and single-node: same bytes, no process, no segment.

    Returns the route each request took on the sharded service.
    """
    children_before = {child.pid for child in multiprocessing.active_children()}
    segments_before = shm_dir_segments()
    settings = ServiceSettings(use_result_cache=False)
    sharded = ShardedQueryService(db, num_shards=2, spec=spec, settings=settings)
    single = QueryService(db, settings=settings)
    sources = []
    with sharded, single:
        for statement, params in requests:
            got = sharded.execute(statement, params)
            want = single.execute(statement, params).columns
            _assert_same_columns(got.columns, want)
            sources.append(got.source)
        assert {child.pid for child in multiprocessing.active_children()} == children_before
        assert shm_dir_segments() == segments_before
    return sources


def test_a_query_never_leaves_the_process(make_rng):
    db = _star_db(make_rng(27))
    template = _star_template()
    spec = ShardingSpec(partitioned={"fact": "g"})
    sources = _serve_on_both(db, spec, [(template, [bound]) for bound in (700, 400)])
    assert set(sources) == {"scatter_gather"}


def _ott_queries():
    db = generate_ott_database(
        num_tables=5, rows_per_table=1500, rows_per_value=30, seed=5, sampling_ratio=0.3
    )
    vectors = ([0, 0, 0, 0, 0], [0, 0, 1, 0, 1], [1, 0, 0, 1, 0])
    # Every OTT join is r_i.b = r_{i+1}.b: partitioning all of them on b
    # co-partitions the chain, so every query scatters.
    spec = ShardingSpec(partitioned={f"r{index}": "b" for index in range(1, 6)})
    return db, spec, [make_ott_query(db, vector) for vector in vectors]


def _tpch_queries():
    db = generate_tpch_database(scale_factor=0.002, seed=3, sampling_ratio=0.4)
    workload = make_tpch_workload(db, instances_per_query=1, seed=3)
    return db, ShardingSpec.tpch(), [instances[0] for instances in workload.values()]


def _tpcds_queries():
    db = generate_tpcds_database(scale=0.08, seed=3, sampling_ratio=0.4)
    # store_sales and store_returns co-partition on the ticket they join on;
    # catalog_sales stays replicated, so q15/q99 route single.
    spec = ShardingSpec(
        partitioned={"store_sales": "ss_ticket_number", "store_returns": "sr_ticket_number"}
    )
    return db, spec, make_tpcds_workload(db, seed=3)


@pytest.mark.parametrize(
    "workload", [_ott_queries, _tpch_queries, _tpcds_queries], ids=["ott", "tpch", "tpcds"]
)
def test_workload_queries_never_leave_the_process(workload):
    db, spec, queries = workload()
    sources = _serve_on_both(db, spec, [(query, None) for query in queries])
    assert any(source.startswith("scatter_") for source in sources)


def _assert_scheduler_counts(db, spec, requests) -> None:
    """The sharded scheduler counts one inline task per shard per scatter;
    a single-node service never submits to its scheduler."""
    settings = ServiceSettings(use_result_cache=False)
    with ShardedQueryService(db, num_shards=2, spec=spec, settings=settings) as sharded:
        with QueryService(db, settings=settings) as single:
            scatters = 0
            for statement, params in requests:
                single.execute(statement, params)
                source = sharded.execute(statement, params).source
                scatters += source.startswith("scatter_")
            assert single.scheduler.stats().tasks_inline == 0
            stats = sharded.scheduler.stats()
            assert scatters > 0
            assert stats.tasks_inline == 2 * scatters
            assert stats.tasks_process == 0


def test_a_query_counts_one_inline_task_per_shard(make_rng):
    db = _star_db(make_rng(27))
    template = _star_template()
    spec = ShardingSpec(partitioned={"fact": "g"})
    _assert_scheduler_counts(db, spec, [(template, [bound]) for bound in (700, 400)])


@pytest.mark.parametrize(
    "workload", [_ott_queries, _tpch_queries, _tpcds_queries], ids=["ott", "tpch", "tpcds"]
)
def test_workload_queries_count_one_inline_task_per_shard(workload):
    db, spec, queries = workload()
    _assert_scheduler_counts(db, spec, [(query, None) for query in queries])
