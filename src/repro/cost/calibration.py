"""Offline calibration of the cost units (Section 5.1.2, Wu et al. [40]).

The paper's "with calibration" configurations replace PostgreSQL's default
cost units with values fitted against observed query running times.  We
reproduce the procedure:

1. run a set of calibration plans (full and index-filtered scans of the
   workload's own tables) through the executor;
2. record, for each plan, the executor's resource vector (pages read, tuples
   visited, ...) and its measured wall-clock time;
3. fit the five cost units by non-negative least squares so that
   ``resources · units ≈ measured seconds``.

The fitted units make the optimizer's cost numbers commensurate with wall
clock on *this* machine, which is exactly what calibration buys in the paper:
better absolute cost estimates and occasionally different plan choices.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Sequence

import numpy as np
from scipy.optimize import nnls

from repro.cost.model import ResourceVector
from repro.cost.units import CostUnits
from repro.errors import CalibrationError

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.sql.ast import Query
    from repro.storage.catalog import Database


@dataclass
class CalibrationObservation:
    """One calibration data point: what a plan did and how long it took."""

    resources: ResourceVector
    elapsed_seconds: float
    label: str = ""


@dataclass
class CalibrationResult:
    """Fitted cost units plus fit diagnostics."""

    units: CostUnits
    observations: List[CalibrationObservation] = field(default_factory=list)
    residual_norm: float = 0.0


def fit_cost_units(observations: Sequence[CalibrationObservation]) -> CalibrationResult:
    """Fit the five cost units from calibration observations via NNLS."""
    if len(observations) < 5:
        raise CalibrationError(
            f"calibration needs at least 5 observations, got {len(observations)}"
        )
    matrix = np.vstack([obs.resources.as_array() for obs in observations])
    target = np.array([obs.elapsed_seconds for obs in observations], dtype=np.float64)
    if not np.isfinite(matrix).all() or not np.isfinite(target).all():
        raise CalibrationError("calibration observations contain non-finite values")
    solution, residual = nnls(matrix, target)
    # Guard against degenerate fits: a unit of exactly zero would make some
    # operations free and can produce pathological plans, so floor each unit
    # at a small fraction of the largest fitted unit.
    floor = max(solution.max(), 1e-12) * 1e-6
    solution = np.maximum(solution, floor)
    units = CostUnits.from_vector(solution)
    return CalibrationResult(units=units, observations=list(observations), residual_norm=float(residual))


def calibrate_cost_units(db: Database, repetitions: int = 1) -> CalibrationResult:
    """Calibrate the cost units against the executor on ``db``.

    The calibration workload is a full sequential scan of every table, largest
    first, plus one equality-filtered scan on each of its first two indexed
    columns; ``repetitions`` is how many times each plan is executed (timings
    averaged).
    """
    from repro.executor.executor import Executor
    from repro.optimizer.optimizer import Optimizer
    from repro.sql.builder import QueryBuilder

    executor = Executor(db)
    optimizer = Optimizer(db)

    queries: List[Query] = []
    table_names = sorted(db.table_names(), key=lambda name: -db.table(name).num_rows)
    for name in table_names:
        # A full sequential scan of every table.
        queries.append(QueryBuilder(f"calib_scan_{name}").table(name).build())
        table = db.table(name)
        # One filtered scan per indexed column: exercises index scans and
        # predicate evaluation so that the index/CPU cost units are
        # identifiable even on databases with few tables.
        for column in db.indexed_columns(name)[:2]:
            if table.num_rows == 0:
                continue
            probe_value = table.column(column)[0]
            if hasattr(probe_value, "item"):
                probe_value = probe_value.item()
            queries.append(
                QueryBuilder(f"calib_index_{name}_{column}")
                .table(name)
                .filter(name, column, "=", probe_value)
                .build()
            )

    observations: List[CalibrationObservation] = []
    for query in queries:
        plan = optimizer.optimize(query)
        total_resources = ResourceVector()
        elapsed = 0.0
        for _ in range(max(1, repetitions)):
            started = time.perf_counter()
            result = executor.execute_plan(plan, query)
            elapsed += time.perf_counter() - started
            total_resources = result.actual_resources
        observations.append(
            CalibrationObservation(
                resources=total_resources,
                elapsed_seconds=elapsed / max(1, repetitions),
                label=query.name,
            )
        )
    return fit_cost_units(observations)
