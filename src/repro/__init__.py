"""repro — a reproduction of *Sampling-Based Query Re-Optimization* (SIGMOD 2016).

The package implements, in pure Python:

* an in-memory relational engine (storage, statistics, cardinality estimation,
  a PostgreSQL-style cost model, a System-R dynamic-programming optimizer and
  a vectorised executor);
* the paper's contribution — a compile-time, sampling-based iterative query
  re-optimization loop (:mod:`repro.reopt`);
* the theoretical model of the loop's convergence (:mod:`repro.theory`);
* the workloads used in the paper's evaluation — TPC-H-like, TPC-DS-like and
  the "optimizer torture test" (OTT) of Section 4 (:mod:`repro.workloads`);
* the paper scorecard regenerating every figure of the evaluation
  (:mod:`repro.bench.experiments`).

Quickstart
----------

>>> from repro import Database, reoptimize
>>> from repro.workloads.ott import generate_ott_database, make_ott_query
>>> db = generate_ott_database(num_tables=4, rows_per_table=2000, seed=7)
>>> query = make_ott_query(db, constants=[0, 0, 0, 1])
>>> result = reoptimize(db, query)
>>> result.rounds >= 1
True
"""

from __future__ import annotations

from repro.errors import (
    CalibrationError,
    CatalogError,
    ExecutionError,
    ParseError,
    PlanningError,
    ReproError,
    SamplingError,
    SchemaError,
    StatisticsError,
)
from repro.storage.catalog import Database
from repro.storage.table import Column, Table, TableSchema
from repro.sql.ast import Query
from repro.sql.parser import parse_query
from repro.optimizer.optimizer import Optimizer, OptimizerSettings
from repro.executor.executor import Executor, ExecutionResult
from repro.reopt.algorithm import (
    ReoptimizationResult,
    ReoptimizationSettings,
    Reoptimizer,
    reoptimize,
)

__version__ = "1.0.0"

__all__ = [
    "CalibrationError",
    "CatalogError",
    "Column",
    "Database",
    "ExecutionError",
    "ExecutionResult",
    "Executor",
    "Optimizer",
    "OptimizerSettings",
    "ParseError",
    "PlanningError",
    "Query",
    "ReoptimizationResult",
    "ReoptimizationSettings",
    "Reoptimizer",
    "ReproError",
    "SamplingError",
    "SchemaError",
    "StatisticsError",
    "Table",
    "TableSchema",
    "parse_query",
    "reoptimize",
    "__version__",
]
