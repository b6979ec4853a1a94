"""Differential test of the DP join enumerator against a reference planner.

``ReferencePlanner`` is the enumeration the bitmask-space inner loop
replaced: per mask it *builds* a ``JoinNode`` for every (ordered split ×
enabled method), scanning all join predicates with set-membership tests and
pricing through ``join_resources`` → ``cost``, then takes ``min`` over the
connected candidates (or, lacking any, over the cartesian ones).  It shares
nothing with the production inner loop but the memo table and the search
order, so the two agreeing — plan, cost bits, the paper's *N*, masks
expanded, every memo entry — over random join graphs, method subsets,
search shapes and Γ injections is the evidence that the rewrite changed
speed only.

The search order includes *which* masks are planned (``_join_masks``), so
``test_planned_masks_are_the_connected_subsets`` checks that set on its own,
against a breadth-first search over the query's join predicates.
"""

from __future__ import annotations

from typing import List, Optional
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cardinality.gamma import Gamma
from repro.cost.model import CostModel
from repro.errors import PlanningError
from repro.optimizer.dp import DynamicProgrammingPlanner
from repro.optimizer.optimizer import Optimizer
from repro.optimizer.settings import OptimizerSettings
from repro.plans.nodes import JoinMethod, JoinNode, PlanNode, ScanNode
from repro.sql.builder import QueryBuilder
from repro.storage.catalog import Database
from repro.storage.table import Column, Table, TableSchema

TABLES = [f"t{index}" for index in range(7)]
KEY_COLUMNS = ("a", "b")


class ReferencePlanner(DynamicProgrammingPlanner):
    """Build-all-candidates enumeration (the pre-rewrite ``_expand_mask``)."""

    def _build_join(
        self, left: PlanNode, right: PlanNode, method: JoinMethod, output_rows: float
    ) -> Optional[JoinNode]:
        predicates = tuple(self.query.join_predicates_between(left.relations, right.relations))
        inner_table_rows = 0.0
        if method is JoinMethod.INDEX_NESTED_LOOP:
            if not isinstance(right, ScanNode) or not predicates:
                return None
            inner_table = self.query.table_for_alias(right.alias)
            if not any(
                self.db.has_index(inner_table, predicate.column_for(right.alias))
                for predicate in predicates
            ):
                return None
            inner_table_rows = float(self.db.table(inner_table).num_rows)
        if method in (JoinMethod.HASH_JOIN, JoinMethod.MERGE_JOIN) and not predicates:
            return None
        resources = self.cost_model.join_resources(
            method,
            outer_rows=left.estimated_rows,
            inner_rows=right.estimated_rows,
            output_rows=output_rows,
            inner_table_rows=inner_table_rows,
        )
        cost = left.estimated_cost + right.estimated_cost + self.cost_model.cost(resources)
        return JoinNode(
            relations=frozenset(left.relations | right.relations),
            estimated_rows=output_rows,
            estimated_cost=cost,
            left=left,
            right=right,
            method=method,
            predicates=predicates,
        )

    def _expand_mask(self, mask: int) -> None:
        self.last_masks_expanded += 1
        candidates: List[PlanNode] = []
        connected_candidates: List[PlanNode] = []
        output_rows = self.estimator.joinset_cardinality(self._mask_aliases(mask))
        counted_splits = set()
        submask = (mask - 1) & mask
        while submask:
            left_mask, right_mask = submask, mask ^ submask
            submask = (submask - 1) & mask
            left_plan, right_plan = self._best.get(left_mask), self._best.get(right_mask)
            if left_plan is None or right_plan is None:
                continue
            if not self.settings.allow_bushy and bin(right_mask).count("1") != 1:
                continue
            connected = bool(
                self.query.join_predicates_between(left_plan.relations, right_plan.relations)
            )
            if connected:
                split_key = (min(left_mask, right_mask), max(left_mask, right_mask))
                if split_key not in counted_splits:
                    counted_splits.add(split_key)
                    self.num_join_trees_considered += 1
            for method in sorted(self.settings.enabled_join_methods, key=lambda m: m.value):
                join = self._build_join(left_plan, right_plan, method, output_rows)
                if join is None:
                    continue
                candidates.append(join)
                if connected:
                    connected_candidates.append(join)
        pool = connected_candidates or candidates
        if pool:
            self._best[mask] = min(pool, key=lambda node: node.estimated_cost)


@pytest.fixture(scope="module")
def db() -> Database:
    """Seven analyzed tables of different sizes; ``a`` is indexed on the even
    ones and ``b`` on ``t1``, so index nested loop applies to some inner
    sides and not to others."""
    rng = np.random.default_rng(18)
    database = Database("dp-reference")
    for index, name in enumerate(TABLES):
        rows = 40 * (index + 1) * (index + 1)
        schema = TableSchema(name, (Column("a", "int"), Column("b", "int"), Column("n", "int")))
        database.create_table(Table(schema, {
            "a": rng.integers(0, 5 + 3 * index, size=rows),
            "b": rng.integers(0, 40, size=rows),
            "n": rng.integers(0, 100, size=rows),
        }))
        if index % 2 == 0:
            database.create_index(name, "a")
    database.create_index("t1", "b")
    database.analyze()
    return database


@st.composite
def join_graphs(draw):
    """A query over 2-7 relations whose join graph is a chain, a star, a
    cycle, a random tree with extra (cycle-closing or parallel) edges — the
    ``tests/executor/test_live_columns.py`` shape — or any of those with
    edges dropped until it is disconnected."""
    count = draw(st.integers(2, 7))
    shape = draw(st.sampled_from(["chain", "star", "cycle", "tree"]))
    if shape == "star":
        edges = [(0, i) for i in range(1, count)]
    elif shape == "tree":
        edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, count)]
        edges += draw(st.lists(
            st.tuples(st.integers(0, count - 1), st.integers(0, count - 1))
            .filter(lambda edge: edge[0] != edge[1]),
            max_size=2,
        ))
    else:
        edges = [(i - 1, i) for i in range(1, count)]
        if shape == "cycle" and count > 2:
            edges.append((count - 1, 0))
    if draw(st.booleans()):
        dropped = draw(st.sets(st.integers(0, len(edges) - 1), min_size=1, max_size=2))
        edges = [edge for position, edge in enumerate(edges) if position not in dropped]
    aliases = draw(st.permutations(TABLES))[:count]
    builder = QueryBuilder("dp-reference")
    for alias in aliases:
        builder.table(alias)
    for left, right in edges:
        builder.join(
            aliases[left], draw(st.sampled_from(KEY_COLUMNS)),
            aliases[right], draw(st.sampled_from(KEY_COLUMNS)),
        )
    if draw(st.booleans()):
        builder.filter(aliases[0], "n", "<", draw(st.integers(1, 99)))
    return builder.build()


@st.composite
def replan_rounds(draw, aliases):
    """Up to three rounds of Γ injections over ``aliases``."""
    join_sets = st.sets(st.sampled_from(aliases), min_size=1).map(frozenset)
    cardinalities = st.floats(min_value=0.0, max_value=1e9, allow_nan=False)
    return draw(st.lists(st.dictionaries(join_sets, cardinalities, max_size=3), max_size=3))


def assert_same_search(planner: DynamicProgrammingPlanner, reference: ReferencePlanner) -> None:
    assert planner.num_join_trees_considered == reference.num_join_trees_considered
    assert planner.last_masks_expanded == reference.last_masks_expanded
    assert sorted(planner._best) == sorted(reference._best)
    for mask, expected in reference._best.items():
        found = planner._best[mask]
        assert found.signature() == expected.signature(), f"mask {mask:b}"
        assert found.estimated_cost == expected.estimated_cost, f"mask {mask:b}"
        assert found.estimated_rows == expected.estimated_rows, f"mask {mask:b}"
        assert found.relations == expected.relations, f"mask {mask:b}"
        if isinstance(expected, JoinNode):
            assert found.predicates == expected.predicates, f"mask {mask:b}"


def outcome(call):
    """The plan a planner call returned, or ``PlanningError`` if it raised."""
    try:
        return call()
    except PlanningError:
        return PlanningError


class TestAgainstReferencePlanner:
    @settings(max_examples=120, deadline=None)
    @given(
        data=st.data(),
        query=join_graphs(),
        methods=st.sets(st.sampled_from(sorted(JoinMethod)), min_size=1).map(frozenset),
        allow_bushy=st.booleans(),
    )
    def test_plans_costs_and_counters_agree(self, db, data, query, methods, allow_bushy):
        opt_settings = OptimizerSettings(enabled_join_methods=methods, allow_bushy=allow_bushy)
        optimizer = Optimizer(db, opt_settings)
        gamma = Gamma()

        def make(cls):
            return cls(
                db, query, optimizer.make_estimator(query, gamma),
                CostModel(units=opt_settings.cost_units), opt_settings,
            )

        planner, reference = make(DynamicProgrammingPlanner), make(ReferencePlanner)
        rounds = data.draw(replan_rounds(list(query.aliases)))
        # A fresh planner's first ``replan`` is the full search.
        replan_first = bool(rounds) and data.draw(st.booleans())
        if not replan_first:
            results = [outcome(p.plan_joins) for p in (planner, reference)]
            assert (results[0] is PlanningError) == (results[1] is PlanningError)
            assert_same_search(planner, reference)

        for injections in rounds:
            epoch = gamma.epoch
            for join_set, cardinality in sorted(injections.items(), key=lambda item: sorted(item[0])):
                gamma.record(join_set, cardinality)
            estimator = optimizer.make_estimator(query, gamma)
            changed = gamma.changed_since(epoch)
            results = [outcome(lambda p=p: p.replan(estimator, changed)) for p in (planner, reference)]
            assert (results[0] is PlanningError) == (results[1] is PlanningError)
            assert_same_search(planner, reference)
            if results[0] is not PlanningError:
                assert results[0].signature() == results[1].signature()
                assert results[0].estimated_cost == results[1].estimated_cost


def _chain_query(count: int):
    builder = QueryBuilder(f"chain{count}")
    for alias in TABLES[:count]:
        builder.table(alias)
    for left, right in zip(TABLES, TABLES[1:count]):
        builder.join(left, "a", right, "a")
    return builder.build()


def _planner(db, query, opt_settings):
    estimator = Optimizer(db, opt_settings).make_estimator(query)
    return DynamicProgrammingPlanner(
        db, query, estimator, CostModel(units=opt_settings.cost_units), opt_settings
    )


def test_one_join_node_is_built_per_planned_mask(db):
    """Splits are priced as floats: the only ``JoinNode`` objects a search
    constructs are the winners that end up in the memo table."""
    planner = _planner(db, _chain_query(6), OptimizerSettings())
    built = []
    original = JoinNode.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    with mock.patch.object(JoinNode, "__init__", counting_init):
        planner.plan_joins()
    joins_in_memo = [node for node in planner._best.values() if isinstance(node, JoinNode)]
    # Every connected multi-relation mask: the 5 + 4 + 3 + 2 + 1 intervals of
    # length >= 2 of a 6-chain.
    assert len(joins_in_memo) == 15
    assert len(built) == len(joins_in_memo)
    assert {id(node) for node in built} == {id(node) for node in joins_in_memo}


def _reachable(query, start, within):
    """The relations of ``within`` a breadth-first search over join
    predicates reaches from ``start``."""
    reached, frontier = {start}, [start]
    while frontier:
        alias = frontier.pop()
        for other in within - reached:
            if query.join_predicates_between(frozenset({alias}), frozenset({other})):
                reached.add(other)
                frontier.append(other)
    return frozenset(reached)


@settings(max_examples=150, deadline=None)
@given(query=join_graphs())
def test_planned_masks_are_the_connected_subsets(db, query):
    """The DP plans exactly the connected subsets of the relations, plus —
    on a disconnected join graph — the unions of two or more whole
    components, and nothing else."""
    aliases = list(query.aliases)
    subsets = [
        frozenset(alias for position, alias in enumerate(aliases) if mask >> position & 1)
        for mask in range(1, 1 << len(aliases))
    ]
    expected = {
        subset for subset in subsets if _reachable(query, min(subset), subset) == subset
    }
    components = {_reachable(query, alias, frozenset(aliases)) for alias in aliases}
    expected |= {
        subset for subset in subsets
        if sum(component <= subset for component in components) >= 2
        and all(component <= subset or not component & subset for component in components)
    }
    planner = _planner(db, query, OptimizerSettings())
    planner.plan_joins()
    planned = {frozenset(planner._mask_aliases(mask)) for mask in planner._best}
    assert planned == expected


def test_dangling_relation_joins_its_component_by_cartesian_product(db):
    """t0-t1 joined, t2 dangling: the plan joins the t0-t1 join and the t2
    scan by a predicate-free nested loop, no mask mixing t2 with only part
    of the other component is planned, and each planned join mask takes one
    pass over its splits."""
    query = (
        QueryBuilder("dangling").table("t0").table("t1").table("t2")
        .join("t0", "a", "t1", "a").build()
    )
    planner = _planner(db, query, OptimizerSettings())
    with mock.patch.object(
        DynamicProgrammingPlanner, "_cheapest_split", autospec=True,
        side_effect=DynamicProgrammingPlanner._cheapest_split,
    ) as passes:
        plan = planner.plan_joins()
    assert [call.args[1] for call in passes.call_args_list] == [0b011, 0b111]
    assert isinstance(plan, JoinNode)
    assert plan.method is JoinMethod.NESTED_LOOP
    assert plan.predicates == ()
    assert {plan.left.relations, plan.right.relations} == {
        frozenset({"t0", "t1"}), frozenset({"t2"}),
    }
    assert {node.relations for node in planner._best.values()} == {
        frozenset({"t0"}), frozenset({"t1"}), frozenset({"t2"}),
        frozenset({"t0", "t1"}), frozenset({"t0", "t1", "t2"}),
    }
