"""Join-method calibration report: does the cost model rank methods like the clock?

    PYTHONPATH=src python tools/calibration_report.py > CALIBRATION.txt

Over a small grid of (outer rows, inner rows, output rows, inner indexed?) the
report executes one join node per method through :class:`repro.executor.Executor`
— so ``index_nested_loop`` is timed as whichever operator the executor picks
for it — and prints, per method, the model's cost of the join node's actual
resource vector under ``DEFAULT_COST_UNITS``, the same under units freshly
fitted (:func:`repro.cost.calibration.fit_cost_units`) to this run's own
measurements, and the best-of-5 wall time.  Every cell is built first; each
of the 5 timing rounds then runs every (cell, method) once, so a slow stretch
of the host lands on every (cell, method) alike instead of on whichever cell
ran then.  Every pair of methods the model
ranks opposite to the clock is flagged.  Tooling, not a test: nothing in
tier-1 asserts a wall-clock ratio; the committed ``CALIBRATION.txt`` makes
drift between the kernels and the cost units a diff.
"""

from __future__ import annotations

import itertools
import math
import platform
import time
from typing import Dict, List, NamedTuple, Tuple
from unittest import mock

import numpy as np

import repro.executor.executor as executor_module
from repro.cost.calibration import CalibrationObservation, calibrate_cost_units, fit_cost_units
from repro.cost.model import CostModel, ResourceVector
from repro.cost.units import DEFAULT_COST_UNITS
from repro.executor.executor import Executor
from repro.plans.nodes import JoinMethod, JoinNode, ScanNode
from repro.sql.ast import JoinPredicate
from repro.storage.catalog import Database
from repro.storage.table import Column, Table, TableSchema

#: (outer rows, inner rows, inner rows per key, inner indexed?).  Every outer
#: key matches, so output rows = outer rows x rows per key.
GRID = [
    (200, 200_000, 4, True),
    (2_000, 200_000, 4, True),
    (20_000, 200_000, 4, True),
    (200_000, 200_000, 4, True),
    (2_000, 20_000, 1, True),
    (20_000, 20_000, 1, True),
    (2_000, 200_000, 4, False),
    (200_000, 2_000, 1, False),
]
REPEATS = 5
#: Above this many comparisons a nested-loop cell is skipped, not timed.
MAX_NESTED_LOOP_PAIRS = 50_000_000
SEED = 17


class Measurement(NamedTuple):
    method: JoinMethod
    operator: str
    seconds: float
    resources: ResourceVector
    rows: Tuple[int, int, int]


def build_tables(db: Database, cell: int, outer: int, inner: int, per_key: int, indexed: bool) -> None:
    rng = np.random.default_rng(SEED + cell)
    inner_keys = rng.permutation(np.repeat(np.arange(inner // per_key), per_key))
    outer_keys = rng.integers(0, inner // per_key, size=outer)
    for name, keys in ((f"outer{cell}", outer_keys), (f"inner{cell}", inner_keys)):
        schema = TableSchema(name, (Column("k", "int"), Column("v", "float")))
        db.create_table(Table(schema, {"k": keys, "v": rng.random(len(keys))}))
    if indexed:
        db.create_index(f"inner{cell}", "k")


def join_plan(cell: int, method: JoinMethod) -> JoinNode:
    outer, inner = f"outer{cell}", f"inner{cell}"
    return JoinNode(
        left=ScanNode(table=outer, alias=outer),
        right=ScanNode(table=inner, alias=inner),
        method=method,
        predicates=(JoinPredicate(outer, "k", inner, "k"),),
    )


Run = Tuple[int, JoinMethod]


def measure_all(db: Database, runs: List[Run]) -> Dict[Run, Measurement]:
    """Best of ``REPEATS`` rounds, each executing every (cell, method) once."""
    executor = Executor(db)
    best = {run: math.inf for run in runs}
    probed: Dict[Run, bool] = {}
    executions = {}
    probe = executor_module.index_nested_loop_join
    with mock.patch.object(executor_module, "index_nested_loop_join", wraps=probe) as spy:
        for _ in range(REPEATS):
            for run in runs:
                calls = spy.call_count
                started = time.perf_counter()
                executions[run] = executor.execute_fragment(join_plan(*run)).node_executions
                best[run] = min(best[run], time.perf_counter() - started)
                probed[run] = spy.call_count > calls
    measurements = {}
    for (cell, method), nodes in executions.items():
        outer_scan, inner_scan, join = nodes
        if method is JoinMethod.INDEX_NESTED_LOOP:
            operator = "index probe" if probed[cell, method] else "hash kernel (work rule)"
        else:
            operator = method.value
        rows = (outer_scan.actual_rows, inner_scan.actual_rows, join.actual_rows)
        measurements[cell, method] = Measurement(
            method, operator, best[cell, method], join.resources, rows
        )
    return measurements


def inversions(
    measurements: List[Measurement], costs: Dict[JoinMethod, float]
) -> List[str]:
    """Pairs of methods the model ranks opposite to the clock."""
    flagged = []
    for a, b in itertools.combinations(measurements, 2):
        if a.operator.startswith("hash") and b.operator.startswith("hash"):
            continue  # the same kernel twice: their order on the clock is noise
        if (costs[a.method] - costs[b.method]) * (a.seconds - b.seconds) < 0:
            cheap, dear = (a, b) if costs[a.method] < costs[b.method] else (b, a)
            flagged.append(
                f"{cheap.method.value} priced below {dear.method.value} "
                f"({costs[cheap.method]:.4g} < {costs[dear.method]:.4g}) but ran "
                f"{cheap.seconds / dear.seconds:.1f}x as long"
            )
    return flagged


def main() -> None:
    db = Database("calibration")
    runs: List[Run] = []
    for cell, (outer, inner, per_key, indexed) in enumerate(GRID):
        build_tables(db, cell, outer, inner, per_key, indexed)
        methods = [JoinMethod.HASH_JOIN, JoinMethod.MERGE_JOIN]
        if outer * inner <= MAX_NESTED_LOOP_PAIRS:
            methods.append(JoinMethod.NESTED_LOOP)
        if indexed:
            methods.append(JoinMethod.INDEX_NESTED_LOOP)
        runs += [(cell, method) for method in methods]
    measured = measure_all(db, runs)
    cells = [
        (cell, [measured[run] for run in runs if run[0] == cell]) for cell in range(len(GRID))
    ]

    # Fresh units: the scan micro-workload of calibrate_cost_units plus every
    # join measured above, so all five units see a signal.
    db.analyze()
    observations = calibrate_cost_units(db, repetitions=3).observations + [
        CalibrationObservation(m.resources, m.seconds, f"cell{cell}:{m.method.value}")
        for cell, measurements in cells
        for m in measurements
    ]
    fitted = fit_cost_units(observations).units

    print("Join-method calibration report (tools/calibration_report.py)")
    print(
        f"host: {platform.machine()}, python {platform.python_version()}, "
        f"numpy {np.__version__}; best of {REPEATS} interleaved rounds; seed {SEED}"
    )
    print("default units:", DEFAULT_COST_UNITS.as_dict())
    print("fitted units: ", {name: float(f"{v:.3g}") for name, v in fitted.as_dict().items()})
    print("(fitted units are seconds per operation; compare rankings, not magnitudes)")
    total = {"default": 0, "fitted": 0}
    for cell, measurements in cells:
        outer, inner, output = measurements[0].rows
        indexed = "indexed" if GRID[cell][3] else "no index"
        print(f"\nouter {outer:>7,}  inner {inner:>7,}  output {output:>7,}  {indexed}")
        print(f"  {'method':<18} {'default cost':>13} {'fitted cost':>12} {'ms':>9}  operator")
        priced = {
            label: {m.method: CostModel(units).cost(m.resources) for m in measurements}
            for label, units in (("default", DEFAULT_COST_UNITS), ("fitted", fitted))
        }
        for m in measurements:
            print(
                f"  {m.method.value:<18} {priced['default'][m.method]:>13.4g} "
                f"{priced['fitted'][m.method]:>12.4g} {m.seconds * 1e3:>9.3f}  {m.operator}"
            )
        for label, costs in priced.items():
            for line in inversions(measurements, costs):
                total[label] += 1
                print(f"  ! [{label} units] {line}")
    print(
        f"\nmethod pairs ranked opposite to the clock: {total['default']} under default "
        f"units, {total['fitted']} under fitted units"
    )


if __name__ == "__main__":
    main()
