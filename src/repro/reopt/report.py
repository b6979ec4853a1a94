"""Structured reports of one re-optimization run.

Besides the final plan, the experiments in the paper look at *how* the loop
got there: how many plans were generated (Figures 5, 8, 16, 20), how much
time the sampling validation took (Figures 6, 9, 17, 18), and how good the
intermediate plans were (Figures 14, 15).  :class:`ReoptimizationReport`
captures all of that, including the classification of every step as a local
or global transformation (Theorem 2's characterisation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List

from repro.plans.join_tree import JoinTree, TransformationKind, classify_transformation
from repro.plans.nodes import PlanNode


@dataclass
class RoundRecord:
    """What happened in one round of Algorithm 1."""

    round_number: int
    #: The optimizer's plan this round; it carries the cost and row estimates
    #: made under the Γ available at that time.
    plan: PlanNode
    #: Seconds spent validating this plan over the samples (0 for the final
    #: round, which is never validated because the loop already terminated).
    sampling_seconds: float = 0.0
    #: Number of join sets whose validation added new entries to Γ.
    new_gamma_entries: int = 0
    #: Seconds the optimizer spent producing this round's plan.
    planning_seconds: float = 0.0
    #: DP masks the planner (re-)expanded this round.  Round 1 expands every
    #: planned mask; incremental rounds only the Γ-dirtied ones.
    dp_masks_expanded: int = 0


@dataclass
class ReoptimizationReport:
    """Aggregated view over all rounds of one re-optimization run."""

    query_name: str
    rounds: List[RoundRecord] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    # Derived quantities used by the figures
    # ------------------------------------------------------------------ #
    @property
    def num_plans_generated(self) -> int:
        """Number of optimizer invocations — the metric of Figures 5/8/16/20.

        A final invocation that re-produces an earlier plan is counted,
        matching the paper's "number of plans generated during
        re-optimization".  A loop cut short by the coverage test (a
        validation that added no new Γ entries) never makes that redundant
        final invocation, so a single round is possible (e.g. join-free
        queries).
        """
        return len(self.rounds)

    def dp_masks_per_round(self) -> List[int]:
        """DP masks expanded per round."""
        return [record.dp_masks_expanded for record in self.rounds]

    @property
    def transformation_chain(self) -> List[TransformationKind]:
        """How each round's plan relates to the previous round's, for rounds
        2..n (Theorem 2's chain); classified on demand, so the loop itself
        never walks the join trees."""
        return [
            classify_transformation(previous.plan, current.plan)
            for previous, current in zip(self.rounds, self.rounds[1:])
        ]

    def final_plan(self) -> PlanNode:
        """The plan of the last round (the fixed point)."""
        if not self.rounds:
            raise ValueError("report contains no rounds")
        return self.rounds[-1].plan

    def original_plan(self) -> PlanNode:
        """The plan of the first round (the optimizer's original choice)."""
        if not self.rounds:
            raise ValueError("report contains no rounds")
        return self.rounds[0].plan

    def validates_theorem_2(self) -> bool:
        """Check Theorem 2: at most one local transformation, and only as the last step.

        The trailing IDENTICAL step (the re-produced plan that triggers
        termination) is ignored for the purpose of the check.
        """
        chain = [
            kind for kind in self.transformation_chain if kind is not TransformationKind.IDENTICAL
        ]
        local_positions = [
            index for index, kind in enumerate(chain) if kind is TransformationKind.LOCAL
        ]
        if len(local_positions) > 1:
            return False
        if local_positions and local_positions[0] != len(chain) - 1:
            return False
        return True

    def covered_join_sets(self) -> FrozenSet[FrozenSet[str]]:
        """Union of the join sets of all plans generated (the set V of Section 3.5)."""
        union: set = set()
        for record in self.rounds:
            union.update(JoinTree.of(record.plan).join_set)
        return frozenset(union)
