"""The optimizer facade.

``Optimizer.optimize(query, gamma)`` is the ``GetPlanFromOptimizer(Γ)`` call
of Algorithm 1: it runs the cost-based search (DP below the GEQO threshold,
randomized search above it) using a cardinality estimator that prefers the
validated cardinalities in Γ over its histogram estimates, and wraps the join
plan in an aggregation node when the query has one.

The optimizer itself is completely unaware of re-optimization — exactly the
"almost no changes to the original query optimizer" property the paper
emphasises.  All the re-optimization logic lives in :mod:`repro.reopt`.

For callers that re-plan the *same* query repeatedly with a growing Γ (the
re-optimization loop, the query service), ``planning_session``
returns a :class:`PlanningSession` that keeps the DP memo table alive between
calls and re-expands only the Γ-dirtied portion of the search space.  A
session produces plans bit-identical to ``optimize`` while doing a fraction
of the work from round 2 on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cardinality.estimator import CardinalityEstimator
from repro.cardinality.gamma import Gamma
from repro.cost.model import CostModel
from repro.optimizer.dp import DynamicProgrammingPlanner
from repro.optimizer.geqo import GeqoPlanner
from repro.optimizer.settings import OptimizerSettings
from repro.plans.nodes import AggregateNode, PlanNode
from repro.sql.ast import Query
from repro.storage.catalog import Database

__all__ = ["Optimizer", "OptimizerSettings", "OptimizationReport", "PlanningSession"]


@dataclass
class OptimizationReport:
    """Bookkeeping of one optimizer invocation (used by analyses and benches)."""

    plan: PlanNode
    num_join_trees_considered: int
    used_geqo: bool


class PlanningSession:
    """Incremental planning context for one query across many Γ versions.

    The first :meth:`optimize` call runs the full DP enumeration; subsequent
    calls ask Γ which join sets changed since the previous call
    (``Gamma.changed_since``) and re-expand only the affected masks.  GEQO
    queries (above the threshold) re-run the randomized search each round,
    but **seeded** with the previous round's winning join order, so the
    search refines the incumbent under the updated Γ instead of restarting
    from unrelated random permutations.

    ``last_masks_expanded`` exposes how many DP masks the most recent call
    (re-)expanded (``None`` on the GEQO path): the incremental-planning
    metric asserted by the benchmarks.
    """

    def __init__(self, optimizer: "Optimizer", query: Query) -> None:
        query.validate()
        query.ensure_bound()
        self.optimizer = optimizer
        self.query = query
        self.use_geqo = len(query.aliases) > optimizer.settings.geqo_threshold
        self._dp_planner: Optional[DynamicProgrammingPlanner] = None
        self._gamma_epoch = 0
        #: The best join order of the previous GEQO round (seeds the next).
        self._geqo_seed_orders: list = []
        #: DP masks expanded by the most recent call (None on the GEQO path).
        self.last_masks_expanded: Optional[int] = None
        #: Join trees examined by the most recent call.
        self.last_join_trees_considered = 0

    def rebind(self, query: Query) -> "PlanningSession":
        """Re-target the session at a new *binding* of the same template.

        The query service keeps one session per prepared template; when a
        drift-triggered replan arrives with fresh parameter bindings, the
        constants — and therefore every selectivity — may have changed, so
        the DP memo is dropped (its cached costs are stale for the new
        bindings) and the Γ epoch resets.  What survives is the GEQO seed:
        the join *structure* is identical across bindings of one template,
        so the previous binding's winning join order remains an informed
        starting permutation for the randomized search.
        """
        query.validate()
        query.ensure_bound()
        if [ref.alias for ref in query.tables] != [ref.alias for ref in self.query.tables]:
            raise ValueError(
                "rebind expects a binding of the same template "
                f"(aliases {self.query.aliases} != {query.aliases})"
            )
        self.query = query
        self._dp_planner = None
        self._gamma_epoch = 0
        self.last_masks_expanded = None
        self.last_join_trees_considered = 0
        return self

    def optimize(self, gamma: Optional[Gamma] = None) -> PlanNode:
        """Plan the session's query under the current Γ."""
        estimator = self.optimizer.make_estimator(self.query, gamma)
        if self.use_geqo:
            planner = GeqoPlanner(
                self.optimizer.db, self.query, estimator,
                self.optimizer.cost_model, self.optimizer.settings,
                seed_orders=self._geqo_seed_orders,
            )
            join_plan = planner.plan_joins()
            if planner.best_order is not None:
                self._geqo_seed_orders = [list(planner.best_order)]
            trees_considered = planner.num_orders_considered
            self.last_masks_expanded = None
        else:
            if self._dp_planner is None:
                self._dp_planner = DynamicProgrammingPlanner(
                    self.optimizer.db, self.query, estimator,
                    self.optimizer.cost_model, self.optimizer.settings,
                )
            # A fresh planner's ``replan`` is the full search.
            changed = (
                gamma.changed_since(self._gamma_epoch) if gamma is not None else frozenset()
            )
            trees_before = self._dp_planner.num_join_trees_considered
            join_plan = self._dp_planner.replan(estimator, changed)
            trees_considered = self._dp_planner.num_join_trees_considered - trees_before
            self.last_masks_expanded = self._dp_planner.last_masks_expanded
        self._gamma_epoch = gamma.epoch if gamma is not None else self._gamma_epoch
        self.last_join_trees_considered = trees_considered

        plan = self.optimizer.finalize_plan(self.query, join_plan)
        self.optimizer.last_report = OptimizationReport(
            plan=plan,
            num_join_trees_considered=trees_considered,
            used_geqo=self.use_geqo,
        )
        return plan


class Optimizer:
    """Cost-based query optimizer with injectable validated cardinalities."""

    def __init__(self, db: Database, settings: Optional[OptimizerSettings] = None) -> None:
        self.db = db
        self.settings = settings if settings is not None else OptimizerSettings()
        self.cost_model = CostModel(units=self.settings.cost_units)
        #: Report of the most recent ``optimize`` call.
        self.last_report: Optional[OptimizationReport] = None

    def make_estimator(self, query: Query, gamma: Optional[Gamma] = None) -> CardinalityEstimator:
        """Build the cardinality estimator the search will consult."""
        return CardinalityEstimator(
            self.db,
            query,
            gamma=gamma,
            use_mcv_join_refinement=self.settings.use_mcv_join_refinement,
        )

    def planning_session(self, query: Query) -> PlanningSession:
        """Open an incremental planning session for ``query``."""
        return PlanningSession(self, query)

    def finalize_plan(self, query: Query, plan: PlanNode) -> PlanNode:
        """Wrap a join plan in the query's aggregation node (when it has one)."""
        if query.aggregates or query.group_by:
            input_rows = plan.estimated_rows
            group_columns = len(query.group_by)
            # Rough group-count estimate: the product of per-column distinct
            # counts capped by the input cardinality (no grouping statistics on
            # join outputs are kept, as in PostgreSQL before extended stats).
            if group_columns == 0:
                output_groups = 1.0
            else:
                output_groups = max(1.0, min(input_rows, input_rows ** 0.5))
            resources = self.cost_model.aggregate_resources(input_rows, output_groups)
            plan = AggregateNode(
                relations=frozenset(plan.relations),
                estimated_rows=output_groups,
                estimated_cost=plan.estimated_cost + self.cost_model.cost(resources),
                child=plan,
                group_by=tuple(query.group_by),
                aggregates=tuple(query.aggregates),
            )
        return plan

    def optimize(self, query: Query, gamma: Optional[Gamma] = None) -> PlanNode:
        """Return the cheapest plan for ``query`` given the validated cardinalities Γ."""
        return self.planning_session(query).optimize(gamma)
