"""Re-optimization changes the plan, never the answer's bits.

Algorithm 1 is a post-processing step: whatever plan it settles on, the
paper's own path (``Executor.execute_plan``, which never sorts) must return
the bytes the original plan returns.  The float ``SUM`` below spans twelve
orders of magnitude, so a plan that feeds the aggregate its rows in another
order would show in the last bits of a row-order sum.
"""

from __future__ import annotations

import numpy as np

import repro
from repro import Executor
from repro.sql.builder import QueryBuilder
from repro.storage.catalog import Database
from repro.storage.table import Column, Table, TableSchema


def _star_database() -> Database:
    rng = np.random.default_rng(4)
    fact_rows, dim_rows = 600, 40
    k0 = rng.integers(0, dim_rows, size=fact_rows)
    db = Database("reopt_bits")
    db.create_table(Table(
        TableSchema("fact", (
            Column("k0", "int"), Column("k1", "int"), Column("k2", "int"),
            Column("g", "int"), Column("v", "float"),
        )),
        {
            "k0": k0,
            # k1 follows k0 in four rows of five: a correlation ANALYZE misses.
            "k1": np.where(
                rng.random(fact_rows) < 0.8, k0, rng.integers(0, dim_rows, size=fact_rows)
            ),
            "k2": rng.integers(0, dim_rows, size=fact_rows),
            "g": rng.integers(0, 7, size=fact_rows),
            "v": rng.uniform(size=fact_rows) * 10.0 ** rng.integers(-6, 7, size=fact_rows),
        },
    ))
    for index in range(3):
        db.create_table(Table(
            TableSchema(f"dim{index}", (Column("k", "int"), Column("payload", "int"))),
            {"k": rng.permutation(dim_rows), "payload": rng.integers(0, 1000, size=dim_rows)},
        ))
    db.analyze()
    db.create_samples(ratio=0.5, seed=4)
    return db


def _output_bytes(columns):
    return [(name, np.asarray(column).dtype.str, np.asarray(column).tobytes())
            for name, column in columns.items()]


def test_a_changed_plan_returns_the_original_plans_bytes():
    db = _star_database()
    builder = QueryBuilder("float_sum").table("fact", "f")
    for index in range(3):
        builder.table(f"dim{index}", f"d{index}").join("f", f"k{index}", f"d{index}", "k")
    query = (
        builder.filter("d0", "payload", "<", 300).filter("d1", "payload", "<", 300)
        .group_by("f", "g").aggregate("sum", "f", "v", "total").build()
    )
    result = repro.reoptimize(db, query)
    assert result.plan_changed
    original = Executor(db).execute_plan(result.original_plan, query)
    final = Executor(db).execute_plan(result.final_plan, query)
    assert original.num_rows == 7
    assert _output_bytes(final.columns) == _output_bytes(original.columns)
