"""The Optimizer Torture Test (OTT) — Section 4 of the paper.

The OTT database consists of ``K`` relations ``R_k(A_k, B_k)`` where

* ``A_k`` is drawn uniformly from ``{0, ..., D-1}`` (``D`` distinct values,
  roughly ``rows_per_value`` rows per value), and
* ``B_k = A_k`` — perfect correlation between the selection column and the
  join column (Algorithm 2).

The OTT queries (Equation 2) select ``A_k = c_k`` on every relation and join
the relations in a chain on ``B_1 = B_2, B_2 = B_3, ...``.  Because
``B_k = A_k``, the query is non-empty only when all constants are equal
(Equation 3) — yet an AVI-based optimizer estimates the same tiny cardinality
regardless, which is exactly the trap the paper sets.

The paper instantiates the columns inside the six largest TPC-H tables; the
reproduction uses stand-alone relations, which preserves the estimation
problem (the extra TPC-H columns play no role in the OTT queries) while
keeping the generator independent from the TPC-H generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.sql.ast import Query
from repro.sql.builder import QueryBuilder
from repro.storage.catalog import Database
from repro.storage.table import Column, Table, TableSchema

#: Rows per distinct value used by the paper (each value appears ~100 times).
PAPER_ROWS_PER_VALUE = 100


@dataclass(frozen=True)
class OttConfig:
    """Shape of one OTT database."""

    num_tables: int
    rows_per_table: int
    rows_per_value: int = PAPER_ROWS_PER_VALUE
    seed: int = 0

    @property
    def domain_size(self) -> int:
        """Number of distinct values per column (``|R| / rows_per_value``, at least 1)."""
        return max(1, self.rows_per_table // self.rows_per_value)


def ott_table_name(index: int) -> str:
    """Name of the ``index``-th OTT relation (1-based): ``r1``, ``r2``, ..."""
    return f"r{index}"


def generate_ott_table(name: str, rows: int, domain_size: int, rng: np.random.Generator) -> Table:
    """Generate one OTT relation with ``B = A`` (Algorithm 2, lines 2-4)."""
    a_column = rng.integers(0, domain_size, size=rows, dtype=np.int64)
    schema = TableSchema(name, (Column("a", "int"), Column("b", "int")))
    return Table(schema, {"a": a_column, "b": a_column.copy()})


def generate_ott_database(
    num_tables: int = 5,
    rows_per_table: int = 5000,
    rows_per_value: int = PAPER_ROWS_PER_VALUE,
    seed: int = 0,
    create_indexes: bool = True,
    analyze: bool = True,
    sampling_ratio: float = 0.05,
    create_samples: bool = True,
) -> Database:
    """Build an OTT database ready for (re-)optimization experiments.

    Each relation gets its own independently seeded generator (Algorithm 2,
    line 2).  Indexes on the ``a`` and ``b`` columns mirror the indexes the
    paper creates on the added columns; ANALYZE and sampling are run by
    default so the returned database is immediately usable.
    """
    config = OttConfig(
        num_tables=num_tables,
        rows_per_table=rows_per_table,
        rows_per_value=rows_per_value,
        seed=seed,
    )
    db = Database(name=f"ott_{num_tables}x{rows_per_table}")
    for index in range(1, num_tables + 1):
        rng = np.random.default_rng(seed + index)
        table = generate_ott_table(
            ott_table_name(index), rows_per_table, config.domain_size, rng
        )
        db.create_table(table)
        if create_indexes:
            db.create_index(table.name, "a")
            db.create_index(table.name, "b")
    if analyze:
        db.analyze()
    if create_samples:
        db.create_samples(ratio=sampling_ratio, seed=seed + 1000)
    return db


def make_ott_query(db: Database, constants: Sequence[int], name: Optional[str] = None) -> Query:
    """Build the OTT query of Equation 2 for the given selection constants.

    ``constants[k]`` is the value of the selection ``A_{k+1} = c`` on relation
    ``r{k+1}``; the joins form the chain ``b_1 = b_2, ..., b_{K-1} = b_K``.
    """
    num_tables = len(constants)
    if num_tables < 2:
        raise ValueError("an OTT query needs at least two relations")
    builder = QueryBuilder(name or f"ott_{num_tables}tables")
    for index in range(1, num_tables + 1):
        table = ott_table_name(index)
        if not db.has_table(table):
            raise ValueError(f"database has no OTT relation {table!r}")
        builder.table(table)
        builder.filter(table, "a", "=", int(constants[index - 1]))
    for index in range(1, num_tables):
        builder.join(ott_table_name(index), "b", ott_table_name(index + 1), "b")
    builder.aggregate("count", output_name="result_rows")
    return builder.build()


def make_ott_workload(
    db: Database,
    num_tables: int,
    num_queries: int,
    num_matching: Optional[int] = None,
    seed: int = 7,
) -> List[Query]:
    """Generate the OTT query set of Section 5.3.

    Each query selects ``A = 0`` on ``num_matching`` relations and ``A = 1``
    on the remaining ones (or vice versa), with the positions of the
    mismatching selections varying across queries, so every query is empty
    while its maximal non-empty sub-queries are large.  ``num_matching``
    defaults to ``num_tables - 1``, the paper's ``m = n - 1`` choice for the
    4-join queries (``m = 4, n = 5``) and close to it for the 5-join queries.
    """
    if num_matching is None:
        num_matching = num_tables - 1
    if not 0 < num_matching < num_tables:
        raise ValueError("num_matching must be strictly between 0 and num_tables")
    rng = np.random.default_rng(seed)
    queries: List[Query] = []
    for query_index in range(num_queries):
        constants = np.zeros(num_tables, dtype=np.int64)
        mismatch_positions = rng.choice(num_tables, size=num_tables - num_matching, replace=False)
        constants[mismatch_positions] = 1
        if rng.random() < 0.5:
            constants = 1 - constants
        queries.append(
            make_ott_query(db, constants.tolist(), name=f"ott_q{query_index + 1}")
        )
    return queries
