"""Tests for the DP optimizer and access-path selection."""

import sys
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import pytest

from repro.cardinality.gamma import Gamma
from repro.cost.model import CostModel
from repro.errors import PlanningError
from repro.optimizer import dp
from repro.optimizer.optimizer import Optimizer
from repro.optimizer.profiles import OPTIMIZER_PROFILES, profile_settings
from repro.optimizer.settings import OptimizerSettings
from repro.plans.join_tree import JoinTree
from repro.plans.nodes import AggregateNode, ScanMethod, ScanNode
from repro.sql.builder import QueryBuilder
from repro.workloads.ott import generate_ott_database, make_ott_query


@pytest.fixture(scope="module")
def db():
    return generate_ott_database(
        num_tables=5, rows_per_table=2000, rows_per_value=50, seed=4, sampling_ratio=0.2
    )


class TestPlanShape:
    def test_single_table_query_is_a_scan(self, db):
        query = QueryBuilder("q").table("r1").filter("r1", "a", "=", 1).build()
        plan = Optimizer(db).optimize(query)
        assert isinstance(plan, ScanNode)

    def test_join_plan_covers_all_relations(self, db):
        query = make_ott_query(db, [0, 0, 0, 0, 0])
        plan = Optimizer(db).optimize(query)
        assert isinstance(plan, AggregateNode)
        assert plan.relations == frozenset({"r1", "r2", "r3", "r4", "r5"})
        assert len(plan.child.join_nodes()) == 4
        assert sum(isinstance(node, ScanNode) for node in plan.child.walk()) == 5

    def test_plan_contains_only_query_join_predicates(self, db):
        query = make_ott_query(db, [0, 0, 0, 0, 0])
        plan = Optimizer(db).optimize(query)
        allowed = {p.normalized() for p in query.join_predicates}
        for node in plan.join_nodes():
            for predicate in node.predicates:
                assert predicate.normalized() in allowed

    def test_estimated_cost_is_cumulative(self, db):
        query = make_ott_query(db, [0, 0, 0, 0, 0])
        plan = Optimizer(db).optimize(query)
        for node in plan.join_nodes():
            for child in node.children():
                assert node.estimated_cost >= child.estimated_cost

    def test_left_deep_only_setting(self, db):
        query = make_ott_query(db, [0, 0, 0, 0, 0])
        settings = OptimizerSettings(allow_bushy=False)
        plan = Optimizer(db, settings).optimize(query)
        tree = JoinTree.of(plan)
        assert tree.is_left_deep()

    def test_no_tables_rejected(self, db):
        query = QueryBuilder("empty").build()
        with pytest.raises(PlanningError):
            Optimizer(db).optimize(query)


class TestJoinTreeCount:
    """The DP counter must report distinct logical join trees (the paper's N)."""

    @staticmethod
    def _chain_query(db):
        builder = QueryBuilder("chain4")
        for index in range(1, 5):
            builder.table(f"r{index}")
        for index in range(1, 4):
            builder.join(f"r{index}", "b", f"r{index + 1}", "b")
        return builder.build()

    @staticmethod
    def _planner(db, query, settings):
        from repro.cost.model import CostModel
        from repro.optimizer.dp import DynamicProgrammingPlanner

        estimator = Optimizer(db, settings).make_estimator(query)
        return DynamicProgrammingPlanner(
            db, query, estimator, CostModel(units=settings.cost_units), settings
        )

    def test_bushy_chain_of_four_matches_hand_count(self, db):
        """Hand count of cp-free trees for the chain r1-r2-r3-r4 (edges 12,
        23, 34).  Only connected subsets are planned, and each split of one
        into two connected halves:
          size 2: {1|2}, {2|3}, {3|4}                                →  3
          size 3: {123}: {1|23},{3|12}; {234}: {2|34},{4|23}         →  4
          size 4: {1|234},{4|123},{12|34}                            →  3
        Total: 10.  {124} and {134} are not connected, and a split such as
        {2|13} or {13|24} has a disconnected half.
        """
        planner = self._planner(db, self._chain_query(db), OptimizerSettings())
        planner.plan_joins()
        assert planner.num_join_trees_considered == 10

    def test_left_deep_chain_of_four_matches_hand_count(self, db):
        """Left-deep drops the one split with no single-relation side,
        {12|34} — leaving 9."""
        planner = self._planner(
            db, self._chain_query(db), OptimizerSettings(allow_bushy=False)
        )
        planner.plan_joins()
        assert planner.num_join_trees_considered == 9

    def test_commuted_split_not_double_counted(self, db):
        query = (
            QueryBuilder("pair").table("r1").table("r2")
            .join("r1", "b", "r2", "b").build()
        )
        planner = self._planner(db, query, OptimizerSettings())
        planner.plan_joins()
        # One unordered join {r1, r2}: counted once, not once per orientation.
        assert planner.num_join_trees_considered == 1

    def test_disconnected_split_not_counted(self, db):
        # r1-r2 joined; r3 dangling without any join predicate.  The planned
        # masks are the component {12} and the union of both components
        # {123}; {13} and {23} are not connected.  {123} has one split,
        # {12|3}, a cartesian product, which does not count towards N.
        # Hand count: {1|2} alone, 1.
        query = QueryBuilder("cross").table("r1").table("r2").table("r3")
        query = query.join("r1", "b", "r2", "b").build()
        planner = self._planner(db, query, OptimizerSettings())
        planner.plan_joins()
        assert planner.num_join_trees_considered == 1
    def test_empty_join_pushed_down_after_validation(self, db):
        """Feeding the validated empty join makes the optimizer evaluate it first."""
        query = make_ott_query(db, [0, 0, 0, 0, 1])
        gamma = Gamma()
        gamma.record({"r4", "r5"}, 0.0)
        gamma.record({"r1", "r2", "r3", "r4", "r5"}, 0.0)
        plan = Optimizer(db).optimize(query, gamma)
        # The empty pair join must appear as a join node of its own (it is the
        # cheapest thing to do first), rather than being delayed to the top.
        join_sets = {frozenset(node.relations) for node in plan.join_nodes()}
        assert frozenset({"r4", "r5"}) in join_sets

    def test_gamma_changes_estimated_rows(self, db):
        query = make_ott_query(db, [0, 0, 0, 0, 0])
        gamma = Gamma()
        gamma.record({"r1", "r2"}, 123456.0)
        plan = Optimizer(db).optimize(query, gamma)
        estimates = {
            frozenset(node.relations): node.estimated_rows for node in plan.join_nodes()
        }
        if frozenset({"r1", "r2"}) in estimates:
            assert estimates[frozenset({"r1", "r2"})] == pytest.approx(123456.0)

    def test_plans_identical_when_gamma_confirms_estimates(self, db):
        query = make_ott_query(db, [0, 0, 0, 0, 0])
        optimizer = Optimizer(db)
        baseline = optimizer.optimize(query)
        confirming = Gamma()
        for node in baseline.join_nodes():
            confirming.record(node.relations, node.estimated_rows)
        confirmed_plan = optimizer.optimize(query, confirming)
        assert JoinTree.of(confirmed_plan).join_set == JoinTree.of(baseline).join_set


def _chain_query(width):
    """``width`` aliases over the fixture's five tables, joined in a chain."""
    builder = QueryBuilder(f"chain{width}")
    for index in range(width):
        builder.table(f"r{index % 5 + 1}", f"t{index}")
    for index in range(width - 1):
        builder.join(f"t{index}", "b", f"t{index + 1}", "b")
    return builder.build()


class TestJoinRelationCap:
    """The exhaustive search stops where PostgreSQL's genetic search starts."""

    @pytest.mark.parametrize("allow_bushy", [True, False], ids=["bushy", "left_deep"])
    def test_thirteen_relations_are_refused_before_enumeration(self, db, allow_bushy):
        query = _chain_query(13)
        optimizer = Optimizer(db, OptimizerSettings(allow_bushy=allow_bushy))
        with mock.patch.object(dp, "best_scan") as scan, mock.patch.object(
            CostModel, "join_pricing"
        ) as pricing:
            with pytest.raises(PlanningError, match="13 relations.*at most 12"):
                optimizer.optimize(query)
        scan.assert_not_called()
        pricing.assert_not_called()

    def test_twelve_relations_still_plan(self, db):
        assert dp.MAX_JOIN_RELATIONS == 12
        plan = Optimizer(db).optimize(_chain_query(12))
        assert plan.relations == frozenset(f"t{index}" for index in range(12))
        assert len(plan.join_nodes()) == 11


class TestSharedOptimizer:
    @pytest.mark.parametrize("workers", [4, 8])
    def test_concurrent_sessions_plan_as_if_alone(self, db, workers):
        """One ``Optimizer`` serves every request thread of a service: a
        plan must not depend on what the other threads plan meanwhile."""
        queries = [
            make_ott_query(db, constants)
            for constants in ([0, 0, 0, 0, 0], [0, 0, 0, 0, 1], [1, 0, 0, 0, 0], [0, 2, 0])
        ] * 3
        serial = [Optimizer(db).optimize(query) for query in queries]
        shared = Optimizer(db)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                concurrent = list(pool.map(shared.optimize, queries, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for alone, together in zip(serial, concurrent):
            assert together.signature() == alone.signature()
            assert together.estimated_cost.hex() == alone.estimated_cost.hex()


class TestProfiles:
    def test_known_profiles_exist(self):
        assert set(OPTIMIZER_PROFILES) == {"postgresql", "system_a", "system_b"}
        with pytest.raises(KeyError):
            profile_settings("oracle")

    def test_system_a_is_left_deep_without_mcv_refinement(self, db):
        settings = profile_settings("system_a")
        assert not settings.allow_bushy
        assert not settings.use_mcv_join_refinement
        query = make_ott_query(db, [0, 0, 0, 0, 1])
        plan = Optimizer(db, settings).optimize(query)
        assert JoinTree.of(plan).is_left_deep()

    def test_system_b_produces_valid_plans(self, db):
        query = make_ott_query(db, [0, 0, 0, 0, 1])
        plan = Optimizer(db, profile_settings("system_b")).optimize(query)
        assert plan.relations == frozenset({"r1", "r2", "r3", "r4", "r5"})


class TestAccessPaths:
    def test_index_scan_chosen_for_selective_indexed_predicate(self):
        # A dedicated database where the equality predicate matches ~10 of
        # 20,000 rows, so fetching a handful of pages at random beats reading
        # all 200 pages sequentially.
        selective_db = generate_ott_database(
            num_tables=2, rows_per_table=20_000, rows_per_value=10, seed=2,
            create_samples=False,
        )
        query = (
            QueryBuilder("q").table("r1").table("r2")
            .filter("r1", "a", "=", 3)
            .join("r1", "b", "r2", "b").build()
        )
        plan = Optimizer(selective_db).optimize(query)
        scans = {node.alias: node for node in plan.walk() if isinstance(node, ScanNode)}
        assert scans["r1"].method is ScanMethod.INDEX_SCAN
        assert scans["r1"].index_column == "a"

    def test_seq_scan_when_no_predicate(self, db):
        query = QueryBuilder("q").table("r1").build()
        plan = Optimizer(db).optimize(query)
        assert plan.method is ScanMethod.SEQ_SCAN

