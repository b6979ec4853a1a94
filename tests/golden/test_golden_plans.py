"""Golden-plan regression suite.

Snapshots the optimizer's choices — plan shape, join order, physical
operators and estimated cardinalities — for every TPC-H, TPC-DS and OTT
workload query at a fixed laptop scale.  Any optimizer drift (a cost-model
tweak, an estimator change, a new access path) fails this suite loudly and
shows exactly which query's plan moved.  After an *intentional* change,
refresh the snapshots with::

    PYTHONPATH=src python -m pytest tests/golden -q --update-golden

Floats are rounded to 8 significant digits before comparison so the
snapshots are stable across platforms while still catching real estimate
drift.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.optimizer.optimizer import Optimizer
from repro.plans.nodes import AggregateNode, JoinNode, PlanNode, ScanNode
from repro.workloads.ott import generate_ott_database, make_ott_workload
from repro.workloads.tpch import generate_tpch_database
from repro.workloads.tpch_queries import make_tpch_workload
from repro.workloads.tpcds import generate_tpcds_database, make_tpcds_workload

GOLDEN_DIR = pathlib.Path(__file__).parent


def _round(value: float) -> float:
    return float(f"{float(value):.8g}")


def plan_snapshot(node: PlanNode) -> dict:
    """A JSON-stable description of a plan's shape and estimates."""
    common = {
        "relations": sorted(node.relations),
        "estimated_rows": _round(node.estimated_rows),
    }
    if isinstance(node, ScanNode):
        return {
            "kind": "scan",
            "table": node.table,
            "alias": node.alias,
            "method": node.method.value,
            "index_column": node.index_column,
            "predicates": sorted(str(p) for p in node.predicates),
            **common,
        }
    if isinstance(node, JoinNode):
        return {
            "kind": "join",
            "method": node.method.value,
            "predicates": sorted(str(p.normalized()) for p in node.predicates),
            "left": plan_snapshot(node.left),
            "right": plan_snapshot(node.right),
            **common,
        }
    if isinstance(node, AggregateNode):
        return {
            "kind": "aggregate",
            "group_by": [str(c) for c in node.group_by],
            "aggregates": [a.output_name for a in node.aggregates],
            "child": plan_snapshot(node.child),
            **common,
        }
    raise TypeError(f"unknown plan node {type(node).__name__}")


def workload_snapshot(db, queries) -> dict:
    optimizer = Optimizer(db)
    snapshot = {}
    for query in queries:
        plan = optimizer.optimize(query)
        snapshot[query.name] = {
            "estimated_cost": _round(plan.estimated_cost),
            "plan": plan_snapshot(plan),
        }
    return snapshot


def _build_tpch():
    db = generate_tpch_database(
        scale_factor=0.004, zipf_z=0.0, seed=1, create_samples=False
    )
    workload = make_tpch_workload(db, seed=1)
    return db, [instances[0] for instances in workload.values()]


def _build_tpcds():
    db = generate_tpcds_database(scale=0.1, seed=2, create_samples=False)
    return db, make_tpcds_workload(db, seed=2)


def _build_ott():
    db = generate_ott_database(
        num_tables=5, rows_per_table=4000, rows_per_value=50, seed=7,
        create_samples=False,
    )
    return db, make_ott_workload(db, num_tables=5, num_queries=10, seed=7)


WORKLOADS = {
    "tpch": _build_tpch,
    "tpcds": _build_tpcds,
    "ott": _build_ott,
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_golden_plans(workload, request):
    db, queries = WORKLOADS[workload]()
    actual = workload_snapshot(db, queries)
    golden_path = GOLDEN_DIR / f"golden_{workload}.json"

    if request.config.getoption("--update-golden"):
        golden_path.write_text(json.dumps(actual, indent=2, sort_keys=True) + "\n")
        return

    assert golden_path.exists(), (
        f"missing golden snapshot {golden_path.name}; "
        f"create it with: pytest tests/golden --update-golden"
    )
    expected = json.loads(golden_path.read_text())
    assert sorted(actual) == sorted(expected), (
        f"{workload}: query set changed — refresh with --update-golden"
    )
    drifted = [name for name in sorted(expected) if actual[name] != expected[name]]
    assert not drifted, (
        f"{workload}: optimizer output drifted for {drifted}; inspect the diff and, "
        f"if intentional, refresh with: pytest tests/golden --update-golden"
    )
