"""Tests for the incremental re-optimization engine.

Covers the three invariants of the engine:

* cross-round DP reuse — rounds after the first re-expand only Γ-dirtied
  masks (a small fraction of the connected subsets the first round plans);
* bit-identical results — incremental re-planning returns exactly the plan a
  from-scratch search under the same Γ would return;
* convergence bugfixes — an A→B→A oscillation terminates via the
  plan-seen-before check, and a covered plan (zero new Γ entries)
  terminates via the paper's coverage rule.
"""

from unittest import mock

import pytest

from repro.cardinality.gamma import Gamma
from repro.cardinality.sampling_estimator import SamplingEstimator
from repro.cost.model import CostModel
from repro.errors import PlanningError
from repro.optimizer.dp import DynamicProgrammingPlanner
from repro.optimizer.optimizer import Optimizer
from repro.optimizer.settings import OptimizerSettings
from repro.plans.join_tree import classify_transformation, plans_identical
from repro.plans.nodes import JoinMethod, JoinNode
from repro.reopt.algorithm import Reoptimizer, reoptimize
from repro.sql.builder import QueryBuilder
from repro.workloads.ott import generate_ott_database, make_ott_query


@pytest.fixture(scope="module")
def db():
    return generate_ott_database(
        num_tables=5, rows_per_table=2500, rows_per_value=40, seed=13, sampling_ratio=0.2
    )


def _fresh_planner(db, query, gamma=None, settings=None):
    settings = settings if settings is not None else OptimizerSettings()
    optimizer = Optimizer(db, settings)
    estimator = optimizer.make_estimator(query, gamma)
    return DynamicProgrammingPlanner(
        db, query, estimator, CostModel(units=settings.cost_units), settings
    )


class TestIncrementalDP:
    def test_replan_identical_to_from_scratch(self, db):
        query = make_ott_query(db, [0, 0, 0, 0, 1])
        optimizer = Optimizer(db)

        planner = _fresh_planner(db, query)
        planner.plan_joins()
        full_masks = planner.last_masks_expanded
        # Every connected subset of the 5-chain, scans included: its 15
        # intervals.
        assert full_masks == 15

        gamma = Gamma()
        gamma.record({"r4", "r5"}, 0.0)
        replanned = planner.replan(
            optimizer.make_estimator(query, gamma), gamma.changed_since(0)
        )
        scratch = _fresh_planner(db, query, gamma)
        assert plans_identical(replanned, scratch.plan_joins())
        # Only the connected supersets of {r4, r5} are dirty: the intervals
        # r_i..r5 for i = 1..4.
        assert planner.last_masks_expanded == 4
        assert planner.last_masks_expanded < full_masks

    def test_replan_with_singleton_dirty_set_rebuilds_scan(self, db):
        query = make_ott_query(db, [0, 0, 0, 0, 1])
        optimizer = Optimizer(db)
        planner = _fresh_planner(db, query)
        planner.plan_joins()

        gamma = Gamma()
        gamma.record({"r1"}, 2.0)
        replanned = planner.replan(
            optimizer.make_estimator(query, gamma), gamma.changed_since(0)
        )
        scratch = _fresh_planner(db, query, gamma)
        assert plans_identical(replanned, scratch.plan_joins())
        # Connected supersets of {r1}: the scan itself plus the four join
        # masks r1..r_j for j = 2..5.
        assert planner.last_masks_expanded == 5

    def test_replan_with_no_changes_expands_nothing(self, db):
        query = make_ott_query(db, [0, 0, 0, 0, 1])
        optimizer = Optimizer(db)
        planner = _fresh_planner(db, query)
        baseline = planner.plan_joins()
        replanned = planner.replan(optimizer.make_estimator(query), frozenset())
        assert plans_identical(baseline, replanned)
        assert planner.last_masks_expanded == 0

    def test_replan_ignores_foreign_join_sets(self, db):
        query = make_ott_query(db, [0, 0, 0])
        optimizer = Optimizer(db)
        planner = _fresh_planner(db, query)
        baseline = planner.plan_joins()
        gamma = Gamma()
        gamma.record({"r4", "r5"}, 0.0)  # relations outside this query
        replanned = planner.replan(
            optimizer.make_estimator(query, gamma), gamma.changed_since(0)
        )
        assert plans_identical(baseline, replanned)
        assert planner.last_masks_expanded == 0


class TestSessionInsideAlgorithm1:
    def test_later_rounds_expand_fewer_masks(self, db):
        result = reoptimize(db, make_ott_query(db, [0, 0, 0, 0, 1]))
        masks = [r.dp_masks_expanded for r in result.report.rounds]
        assert masks[0] == 15
        assert len(masks) >= 2
        for later in masks[1:]:
            assert later < masks[0]

    def test_final_plan_matches_from_scratch_optimize(self, db):
        for constants in ([0, 0, 0, 0, 1], [1, 0, 0, 0, 0], [0, 0, 1, 0, 0]):
            query = make_ott_query(db, constants)
            result = reoptimize(db, query)
            scratch = Optimizer(db).optimize(query, result.gamma)
            assert plans_identical(result.final_plan, scratch)

    def test_every_round_plan_matches_scratch_replay(self, db):
        """Replaying Γ growth through a fresh optimizer reproduces each round."""
        from repro.cardinality.sampling_estimator import SamplingEstimator

        query = make_ott_query(db, [0, 1, 0, 0, 0])
        result = reoptimize(db, query)
        sampler = SamplingEstimator(db, query)
        replay_gamma = Gamma()
        for record in result.report.rounds:
            scratch = Optimizer(db).optimize(query, replay_gamma)
            assert plans_identical(record.plan, scratch)
            replay_gamma.merge(sampler.validate_plan(record.plan).cardinalities)


    def test_each_call_plans_from_a_fresh_session(self, db):
        """Consecutive calls on one ``Reoptimizer`` share nothing: every call's
        round 1 is the full search, and each result equals a fresh
        reoptimizer's, down to the cost bits."""
        shared = Reoptimizer(db)
        for constants in ([0, 0, 0, 0, 1], [1, 0, 0, 0, 0], [0, 0, 0, 0, 1]):
            query = make_ott_query(db, constants)
            result = shared.reoptimize(query)
            alone = Reoptimizer(db).reoptimize(query)
            assert result.report.dp_masks_per_round()[0] == 15
            assert result.report.dp_masks_per_round() == alone.report.dp_masks_per_round()
            assert [r.plan.signature() for r in result.report.rounds] == [
                r.plan.signature() for r in alone.report.rounds
            ]
            assert result.final_plan.estimated_cost.hex() == alone.final_plan.estimated_cost.hex()

    def test_a_query_over_the_join_cap_fails_before_any_validation(self, db):
        """Algorithm 1 has no fallback search: a 13-relation query raises the
        planner's ``PlanningError`` in round 1, before a plan is validated."""
        builder = QueryBuilder("chain13")
        for index in range(13):
            builder.table(f"r{index % 5 + 1}", f"t{index}")
        for index in range(12):
            builder.join(f"t{index}", "b", f"t{index + 1}", "b")
        with mock.patch.object(SamplingEstimator, "validate_plan") as validate:
            with pytest.raises(PlanningError, match="13 relations.*at most 12"):
                Reoptimizer(db).reoptimize(builder.build())
        validate.assert_not_called()


class TestConvergenceFixes:
    @staticmethod
    def _scripted_reoptimizer(db, plans):
        """A Reoptimizer whose optimizer replays ``plans`` (cycling)."""

        class _ScriptedSession:
            def __init__(self, script):
                self._script = script
                self._calls = 0
                self.last_masks_expanded = 0

            def optimize(self, gamma=None):
                plan = self._script[self._calls % len(self._script)]
                self._calls += 1
                return plan

        class _ScriptedOptimizer(Optimizer):
            def __init__(self, database, script):
                super().__init__(database)
                self._script = script

            def planning_session(self, query):
                return _ScriptedSession(self._script)

        return Reoptimizer(db, optimizer=_ScriptedOptimizer(db, plans))

    @staticmethod
    def _chain_query(name="chain3"):
        builder = QueryBuilder(name)
        for index in range(1, 4):
            builder.table(f"r{index}")
        builder.join("r1", "b", "r2", "b")
        builder.join("r2", "b", "r3", "b")
        return builder.build()

    def test_oscillation_terminates_by_plan_identity(self, db):
        """A→B→A must stop at round 3: plan A was already validated in round 1.

        The old loop compared only against the previous round's plan, so an
        oscillating estimator re-validated covered plans until the round budget.
        """
        query = self._chain_query()
        plan_a = Optimizer(db).optimize(query)
        force = Gamma()
        # Make the pair used first in plan A look enormous so the optimizer
        # produces a structurally different plan B.
        first_join = min(plan_a.join_nodes(), key=lambda node: len(node.relations))
        force.record(first_join.relations, 1e9)
        plan_b = Optimizer(db).optimize(query, force)
        assert not plans_identical(plan_a, plan_b)
        from repro.plans.join_tree import JoinTree

        # The oscillation must be between *globally* different plans, so
        # that round 2 genuinely grows Γ (otherwise the coverage rule — a
        # different, correct exit — fires first).
        assert JoinTree.of(plan_a).join_set != JoinTree.of(plan_b).join_set

        reoptimizer = self._scripted_reoptimizer(db, [plan_a, plan_b])
        result = reoptimizer.reoptimize(query)
        assert result.converged
        assert result.rounds == 3
        assert plans_identical(result.final_plan, plan_a)
        # A run that returns to its first plan did not change the plan, and
        # its chain has one step per consecutive pair of round plans.
        assert result.plan_changed is False
        assert result.report.transformation_chain == [
            classify_transformation(plan_a, plan_b),
            classify_transformation(plan_b, plan_a),
        ]

    def test_covered_plan_terminates_by_zero_new_entries(self, db):
        """A commuted (local-transformation) plan adds no Γ entries → stop.

        The plans are not identical, so the identity check alone would keep
        looping; the paper's coverage rule ends the loop at round 2.
        """
        query = self._chain_query()
        plan_a = Optimizer(db).optimize(query)
        top = plan_a
        assert isinstance(top, JoinNode)
        plan_b = JoinNode(
            relations=top.relations,
            estimated_rows=top.estimated_rows,
            estimated_cost=top.estimated_cost * 1.01,
            left=top.right,
            right=top.left,
            method=JoinMethod.NESTED_LOOP,
            predicates=top.predicates,
        )
        assert not plans_identical(plan_a, plan_b)

        reoptimizer = self._scripted_reoptimizer(db, [plan_a, plan_b])
        result = reoptimizer.reoptimize(query)
        assert result.converged
        assert result.rounds == 2
        assert result.report.rounds[-1].new_gamma_entries == 0
