"""Every query operator runs in the caller's process.

A service that owns a pool (``ServiceSettings(workers=2)``) serves a star
join with a float ``SUM`` and a ``GROUP BY`` over 16,384-row-and-up tables —
the shape a pool would be tempted to split — without submitting a task,
starting a worker process or publishing a shared-memory segment, and
returns exactly the bytes a ``workers=1`` service returns.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.relalg import shm_dir_segments
from repro.service import QueryService, ServiceSettings
from repro.sql.builder import QueryBuilder
from repro.storage.catalog import Database
from repro.storage.table import Column, Table, TableSchema
from repro.workloads.ott import generate_ott_database, make_ott_query
from repro.workloads.tpcds import generate_tpcds_database, make_tpcds_workload
from repro.workloads.tpch import generate_tpch_database
from repro.workloads.tpch_queries import make_tpch_workload

pytestmark = pytest.mark.usefixtures("multicore_host")

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


def _serve_on_both(db, requests) -> list:
    """Serve ``requests`` on a pooled and a poolless service: same bytes, no pool use.

    Returns the row count of each request's output.
    """
    children_before = {child.pid for child in multiprocessing.active_children()}
    segments_before = shm_dir_segments()
    pooled = QueryService(db, settings=ServiceSettings(workers=2, use_result_cache=False))
    serial = QueryService(db, settings=ServiceSettings(workers=1, use_result_cache=False))
    row_counts = []
    with pooled, serial:
        assert pooled.scheduler.parallel
        for statement, params in requests:
            got = pooled.execute(statement, params).columns
            want = serial.execute(statement, params).columns
            _assert_same_columns(got, want)
            row_counts.append(want.num_rows)
        assert pooled.scheduler.stats().tasks_submitted == 0
        assert {child.pid for child in multiprocessing.active_children()} == children_before
        assert shm_dir_segments() == segments_before
    return row_counts


def test_a_query_never_touches_the_pool(make_rng):
    db = _star_db(make_rng(27))
    template = _star_template()
    row_counts = _serve_on_both(db, [(template, [bound]) for bound in (700, 400)])
    assert min(row_counts) > 0


def _ott_queries():
    db = generate_ott_database(
        num_tables=5, rows_per_table=1500, rows_per_value=30, seed=5, sampling_ratio=0.3
    )
    vectors = ([0, 0, 0, 0, 0], [0, 0, 1, 0, 1], [1, 0, 0, 1, 0])
    return db, [make_ott_query(db, vector) for vector in vectors]


def _tpch_queries():
    db = generate_tpch_database(scale_factor=0.002, seed=3, sampling_ratio=0.4)
    workload = make_tpch_workload(db, instances_per_query=1, seed=3)
    return db, [instances[0] for instances in workload.values()]


def _tpcds_queries():
    db = generate_tpcds_database(scale=0.08, seed=3, sampling_ratio=0.4)
    return db, make_tpcds_workload(db, seed=3)


@pytest.mark.parametrize(
    "workload", [_ott_queries, _tpch_queries, _tpcds_queries], ids=["ott", "tpch", "tpcds"]
)
def test_workload_queries_never_touch_the_pool(workload):
    db, queries = workload()
    _serve_on_both(db, [(query, None) for query in queries])
