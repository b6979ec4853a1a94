"""Algorithm 1 — sampling-based query re-optimization.

The loop is the paper's:

1. ``Γ ← ∅`` (or a caller-provided warm Γ);
2. ask the (unmodified) optimizer for a plan given Γ;
3. if the plan is identical to the plan of *any* earlier round, stop — a
   re-surfaced plan is already fully validated, so Γ cannot grow and the
   loop would only oscillate between covered plans;
4. otherwise run the plan's joins over the sample tables, producing the
   validated cardinalities Δ, and merge ``Γ ← Γ ∪ Δ``;
5. if the merge added **zero new entries**, stop — the plan is covered by
   the earlier plans (the coverage argument behind Theorem 1: an unchanged
   Γ makes the deterministic optimizer re-produce this very plan, so it is
   the fixed point);
6. go to 2.

The rounds of one call plan through one
:class:`~repro.optimizer.optimizer.PlanningSession`, opened for that call, so
the System-R DP memo survives between rounds and round ``i+1`` re-expands
only the masks dirtied by Δ_i — the incremental planning that keeps the
paper's re-optimization overhead argument (Section 3.3) true in practice.

Beyond the paper's algorithm there is one practical safeguard the paper
itself discusses in Section 5.4: a bound on the number of rounds,
:data:`MAX_ROUNDS`, after which the best plan seen so far (by sampled-cost
estimate) is returned.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from repro.cardinality.gamma import Gamma
from repro.cardinality.sampling_estimator import SamplingEstimator
from repro.optimizer.optimizer import Optimizer
from repro.plans.join_tree import plans_identical
from repro.plans.nodes import AggregateNode, JoinNode, PlanNode, ScanNode
from repro.reopt.report import ReoptimizationReport, RoundRecord
from repro.sql.ast import Query
from repro.storage.catalog import Database
from repro.storage.sampling import DEFAULT_SAMPLING_RATIO

#: Hard bound on the number of optimizer invocations (rounds).  The paper
#: observes fewer than 10 rounds for every tested query; the bound is a
#: generous safety net, not a tuning knob.
MAX_ROUNDS = 20


@dataclass(frozen=True)
class ReoptimizationSettings:
    """How Algorithm 1 samples a database that has no samples yet."""

    #: Sampling ratio used when the database has no samples yet.
    sampling_ratio: float = DEFAULT_SAMPLING_RATIO
    #: Seed used when samples have to be created on the fly.
    sampling_seed: int = 42


@dataclass
class ReoptimizationResult:
    """Outcome of re-optimizing one query."""

    query: Query
    final_plan: PlanNode
    original_plan: PlanNode
    report: ReoptimizationReport
    gamma: Gamma
    #: Total wall-clock seconds spent inside the re-optimization loop
    #: (optimizer invocations + sampling validation).
    reoptimization_seconds: float = 0.0
    #: True when the loop stopped because the plan stopped changing (as
    #: opposed to hitting the round budget).
    converged: bool = True

    @property
    def rounds(self) -> int:
        """Number of optimizer invocations performed."""
        return self.report.num_plans_generated

    @property
    def plan_changed(self) -> bool:
        """True if the final plan differs from the optimizer's original plan."""
        return not plans_identical(self.final_plan, self.original_plan)


class Reoptimizer:
    """Drives Algorithm 1 for queries against one database."""

    def __init__(
        self,
        db: Database,
        optimizer: Optional[Optimizer] = None,
        settings: Optional[ReoptimizationSettings] = None,
    ) -> None:
        self.db = db
        self.optimizer = optimizer if optimizer is not None else Optimizer(db)
        self.settings = settings if settings is not None else ReoptimizationSettings()

    # ------------------------------------------------------------------ #
    # The loop
    # ------------------------------------------------------------------ #
    def reoptimize(self, query: Query, gamma: Optional[Gamma] = None) -> ReoptimizationResult:
        """Run Algorithm 1 on ``query`` and return the full result.

        Termination (besides the round budget) happens when either

        * the new plan is identical to the plan of **any** earlier round —
          not just the immediately preceding one, which would loop forever
          on an A→B→A oscillation re-validating already-covered plans — or
        * validating the new plan added **zero new entries** to Γ: the plan
          is covered (Theorem 1), Γ stops growing, and the deterministic
          optimizer would re-produce the same plan next round.

        ``gamma`` may carry pre-validated cardinalities; it is mutated in
        place, exactly as Algorithm 1 writes ``Γ ← Γ ∪ Δ``.  Every call
        plans through a fresh :class:`PlanningSession`, so nothing of an
        earlier call's search carries over.
        """
        if self.db.samples is None:
            self.db.create_samples(
                ratio=self.settings.sampling_ratio, seed=self.settings.sampling_seed
            )
        sampler = SamplingEstimator(self.db, query)
        session = self.optimizer.planning_session(query)

        gamma = gamma if gamma is not None else Gamma()
        report = ReoptimizationReport(query_name=query.name)
        started = time.perf_counter()
        converged = False

        for round_number in range(1, MAX_ROUNDS + 1):
            planning_started = time.perf_counter()
            plan = session.optimize(gamma)
            planning_seconds = time.perf_counter() - planning_started
            record = RoundRecord(
                round_number=round_number,
                plan=plan,
                planning_seconds=planning_seconds,
                dp_masks_expanded=session.last_masks_expanded,
            )
            report.rounds.append(record)

            if any(plans_identical(plan, earlier.plan) for earlier in report.rounds[:-1]):
                converged = True
                break

            validation = sampler.validate_plan(plan)
            record.sampling_seconds = validation.elapsed_seconds
            record.new_gamma_entries = gamma.merge(validation.cardinalities)

            if record.new_gamma_entries == 0:
                # Coverage (Theorem 1): Γ did not grow, so the optimizer's
                # next answer would be this very plan — it is the fixed point.
                converged = True
                break

        elapsed = time.perf_counter() - started
        final_plan = self._select_final_plan(report, gamma, converged)
        return ReoptimizationResult(
            query=query,
            final_plan=final_plan,
            original_plan=report.original_plan(),
            report=report,
            gamma=gamma,
            reoptimization_seconds=elapsed,
            converged=converged,
        )

    # ------------------------------------------------------------------ #
    # Fixed-point / fallback plan selection
    # ------------------------------------------------------------------ #
    def _select_final_plan(
        self, report: ReoptimizationReport, gamma: Gamma, converged: bool
    ) -> PlanNode:
        """Pick the plan Algorithm 1 returns.

        On convergence that is simply the last plan (the fixed point).  If the
        loop was cut short by the round budget, Section 5.4's fallback is
        used: re-cost every generated plan under the validated cardinalities
        in Γ and return the cheapest.
        """
        if converged:
            return report.final_plan()
        return min(
            report.rounds, key=lambda record: self._sampled_cost(record.plan, gamma)
        ).plan

    def _sampled_cost(self, plan: PlanNode, gamma: Gamma) -> float:
        """Re-cost ``plan`` using Γ where available (the paper's cost_s)."""
        cost_model = self.optimizer.cost_model
        total = 0.0

        def rows_for(node: PlanNode) -> float:
            validated = gamma.get(node.relations)
            if validated is not None:
                return validated
            return node.estimated_rows

        for node in plan.walk():
            if isinstance(node, ScanNode):
                # A scan's output rows enter only its operator term, so a
                # validated row count moves its own cost by one operator
                # evaluation per row of difference.
                total += node.estimated_cost + cost_model.units.cpu_operator_cost * (
                    rows_for(node) - node.estimated_rows
                )
                continue
            if isinstance(node, JoinNode):
                inner_table_rows = 0.0
                if isinstance(node.right, ScanNode):
                    inner_table_rows = float(self.db.table(node.right.table).num_rows)
                resources = cost_model.join_resources(
                    node.method,
                    outer_rows=rows_for(node.left) if node.left is not None else 0.0,
                    inner_rows=rows_for(node.right) if node.right is not None else 0.0,
                    output_rows=rows_for(node),
                    inner_table_rows=inner_table_rows,
                )
            elif isinstance(node, AggregateNode):
                resources = cost_model.aggregate_resources(
                    rows_for(node.child) if node.child is not None else 0.0,
                    node.estimated_rows,
                )
            else:
                raise TypeError(f"unknown plan node {type(node).__name__}")
            total += cost_model.cost(resources)
        return total


def reoptimize(
    db: Database, query: Query, settings: Optional[ReoptimizationSettings] = None
) -> ReoptimizationResult:
    """Convenience wrapper: run Algorithm 1 with default components."""
    return Reoptimizer(db, settings=settings).reoptimize(query)
