"""GEQO-style randomized join-order search.

PostgreSQL abandons exhaustive dynamic programming when a query joins more
than ``geqo_threshold`` relations (12 by default) and falls back to a genetic
search over left-deep join orders (the paper's footnote 2).  This module
implements a compact version of that idea:

* a pool of random permutations of the relations is generated;
* each permutation is greedily turned into a left-deep plan (choosing the
  cheapest join method at every step);
* the best permutations are iteratively improved by adjacent swaps
  (a light-weight stand-in for GEQO's crossover/mutation).

The search is deterministic for a fixed ``geqo_seed``.

During re-optimization the randomized search is **seeded**: the caller (a
:class:`~repro.optimizer.optimizer.PlanningSession`) passes the previous
round's best join order via ``seed_orders``, which joins the candidate pool
ahead of the random permutations.  Later rounds therefore refine the
incumbent order under the updated Γ instead of restarting the search from
scratch — above-threshold queries converge the way DP queries do, instead of
bouncing between unrelated random optima each round.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Sequence

from repro.cardinality.estimator import CardinalityEstimator
from repro.cost.model import CostModel
from repro.errors import PlanningError
from repro.optimizer.access_paths import best_scan
from repro.optimizer.settings import OptimizerSettings
from repro.plans.nodes import JoinMethod, JoinNode, PlanNode, ScanNode
from repro.sql.ast import Query
from repro.storage.catalog import Database


class GeqoPlanner:
    """Randomized left-deep planner for many-relation queries."""

    def __init__(
        self,
        db: Database,
        query: Query,
        estimator: CardinalityEstimator,
        cost_model: CostModel,
        settings: OptimizerSettings,
        seed_orders: Sequence[Sequence[str]] = (),
    ) -> None:
        self.db = db
        self.query = query
        self.estimator = estimator
        self.cost_model = cost_model
        self.settings = settings
        #: Enabled join methods in tie-break order.
        self._methods = sorted(settings.enabled_join_methods, key=lambda m: m.value)
        #: Join orders to evaluate ahead of the random pool (e.g. the
        #: previous re-optimization round's winner).
        self.seed_orders = [list(order) for order in seed_orders]
        self.num_orders_considered = 0
        #: The join order of the best plan the last ``plan_joins`` call found
        #: (None for single-relation queries); callers feed it back as a seed.
        self.best_order: Optional[List[str]] = None

    # ------------------------------------------------------------------ #
    # Plan construction for one permutation
    # ------------------------------------------------------------------ #
    def _scan_for(self, alias: str) -> ScanNode:
        return best_scan(self.db, self.query, alias, self.estimator, self.cost_model, self.settings)

    def _cheapest_join(self, left: PlanNode, right: ScanNode) -> JoinNode:
        output_rows = self.estimator.joinset_cardinality(left.relations | right.relations)
        predicates = self.query.join_predicates_between(left.relations, right.relations)
        inner_table = self.query.table_for_alias(right.alias)
        indexed_inner_rows = None
        if any(self.db.has_index(inner_table, p.column_for(right.alias)) for p in predicates):
            indexed_inner_rows = float(self.db.table(inner_table).num_rows)
        input_cost = left.estimated_cost + right.estimated_cost
        priced = self.cost_model.join_pricing(self._methods, output_rows).cheapest(
            input_cost, left.estimated_rows, right.estimated_rows,
            bool(predicates), indexed_inner_rows, math.inf,
        )
        if priced is None:
            # No applicable enabled method: fall back to a nested loop (cartesian
            # product with residual predicates), which always applies.
            priced = self.cost_model.join_pricing((JoinMethod.NESTED_LOOP,), output_rows).cheapest(
                input_cost, left.estimated_rows, right.estimated_rows, False, None, math.inf
            )
            assert priced is not None
        cost, method = priced
        return JoinNode(
            relations=frozenset(left.relations | right.relations),
            estimated_rows=output_rows,
            estimated_cost=cost,
            left=left,
            right=right,
            method=method,
            predicates=tuple(predicates),
        )

    def _plan_for_order(self, order: Sequence[str]) -> PlanNode:
        self.num_orders_considered += 1
        plan: PlanNode = self._scan_for(order[0])
        for alias in order[1:]:
            plan = self._cheapest_join(plan, self._scan_for(alias))
        return plan

    # ------------------------------------------------------------------ #
    # Search
    # ------------------------------------------------------------------ #
    def plan_joins(self) -> PlanNode:
        """Return the best left-deep plan found by the randomized search."""
        aliases = list(self.query.aliases)
        if not aliases:
            raise PlanningError(f"query {self.query.name!r} references no tables")
        if len(aliases) == 1:
            return self._scan_for(aliases[0])

        rng = random.Random(self.settings.geqo_seed)
        alias_set = set(aliases)
        # Always include the textual order as one candidate for determinism,
        # then any caller-provided seed orders (previous rounds' winners;
        # orders that do not cover the query's aliases are ignored), then the
        # random pool.
        orders = [list(aliases)]
        for seed_order in self.seed_orders:
            if set(seed_order) == alias_set and seed_order not in orders:
                orders.append(list(seed_order))
        for _ in range(max(1, self.settings.geqo_pool_size - 1)):
            order = list(aliases)
            rng.shuffle(order)
            orders.append(order)

        best_plan: Optional[PlanNode] = None
        best_order: Optional[List[str]] = None
        for order in orders:
            plan = self._plan_for_order(order)
            if best_plan is None or plan.estimated_cost < best_plan.estimated_cost:
                best_plan = plan
                best_order = order

        # Local improvement: adjacent swaps on the best order.
        improved = True
        while improved and best_order is not None:
            improved = False
            for position in range(len(best_order) - 1):
                candidate_order = list(best_order)
                candidate_order[position], candidate_order[position + 1] = (
                    candidate_order[position + 1],
                    candidate_order[position],
                )
                candidate = self._plan_for_order(candidate_order)
                if candidate.estimated_cost < best_plan.estimated_cost:
                    best_plan = candidate
                    best_order = candidate_order
                    improved = True
        assert best_plan is not None
        self.best_order = list(best_order) if best_order is not None else None
        return best_plan
