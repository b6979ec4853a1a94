"""The DP's tie-break against the build-every-candidate reference.

The planner prices splits through one ``JoinPricing`` per join output and
skips a split whose inputs alone cost at least the best split so far.
``ReferencePlanner`` (``test_dp_reference.py``) instead builds a
``JoinNode`` for every applicable method, prices it through
``join_resources`` → ``cost`` and takes ``min`` — no cutoff, no shared
pricing code — so agreement down to the cost bits pins both the formula and
the tie-break rule.
"""

from __future__ import annotations

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from repro.cost.model import CostModel, JoinPricing
from repro.cost.units import DEFAULT_COST_UNITS
from repro.optimizer.dp import DynamicProgrammingPlanner
from repro.optimizer.optimizer import Optimizer
from repro.optimizer.settings import OptimizerSettings
from repro.plans.nodes import JoinMethod, JoinNode
from repro.sql.builder import QueryBuilder
from repro.storage.catalog import Database
from repro.storage.table import Column, Table, TableSchema

from test_dp_reference import ReferencePlanner, assert_same_search


def _planner(cls, db: Database, query, opt_settings: OptimizerSettings):
    estimator = Optimizer(db, opt_settings).make_estimator(query)
    return cls(db, query, estimator, CostModel(units=opt_settings.cost_units), opt_settings)


@pytest.mark.parametrize(
    "rows, seq_page_cost, tied_method, splits_priced",
    [
        # Hash join evaluates 2·3 + 3 operators, nested loop 3 · 3.
        (3, 1.0, JoinMethod.NESTED_LOOP, 2),
        # A join term below half an ulp of the inputs' cost: hash and merge
        # both sum to exactly the inputs' cost, so the second split's inputs
        # alone equal the winner's cost and the cutoff skips it.
        (0, 1e9, JoinMethod.MERGE_JOIN, 1),
    ],
)
def test_interchangeable_relations_keep_the_first_split_and_method(
    rows, seq_page_cost, tied_method, splits_priced
):
    """Two identical tables joined on their key, so both orientations price
    to the same bits, and two methods tie as well.  The winner is the split
    enumerated first — sub-masks descending, so ``y`` (bit 2) is the outer —
    with the method first by name, as in the reference, which prices every
    candidate."""
    database = Database("twins")
    for name in ("x", "y"):
        schema = TableSchema(name, (Column("a", "int"),))
        database.create_table(Table(schema, {"a": np.arange(rows)}))
    database.analyze()
    query = QueryBuilder("twins").table("x").table("y").join("x", "a", "y", "a").build()
    opt_settings = OptimizerSettings(
        cost_units=replace(DEFAULT_COST_UNITS, seq_page_cost=seq_page_cost)
    )

    planner = _planner(DynamicProgrammingPlanner, database, query, opt_settings)
    reference = _planner(ReferencePlanner, database, query, opt_settings)
    with mock.patch.object(
        JoinPricing, "cheapest", autospec=True, side_effect=JoinPricing.cheapest
    ) as cheapest:
        plan = planner.plan_joins()
    expected = reference.plan_joins()
    assert_same_search(planner, reference)
    assert plan.signature() == expected.signature()
    assert plan.estimated_cost.hex() == expected.estimated_cost.hex()
    assert cheapest.call_count == splits_priced
    assert planner.num_join_trees_considered == 1

    x, y = planner._best[1], planner._best[2]
    assert (x.estimated_cost, x.estimated_rows) == (y.estimated_cost, y.estimated_rows)
    assert isinstance(plan, JoinNode)
    assert plan.left is y and plan.right is x
    assert plan.method is JoinMethod.HASH_JOIN
    input_cost = x.estimated_cost + y.estimated_cost
    assert planner.cost_model.join_pricing((tied_method,), plan.estimated_rows).cheapest(
        input_cost, x.estimated_rows, y.estimated_rows, True, None, float("inf")
    ) == (plan.estimated_cost, tied_method)
    if splits_priced == 1:
        assert plan.estimated_cost == input_cost
