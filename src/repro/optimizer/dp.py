"""System-R style dynamic-programming join enumeration.

The planner enumerates the connected subsets of the query's relations
bottom-up (smallest subsets first) and keeps, per subset, the cheapest plan
found.  For every subset it tries every (outer, inner) split into two
connected sub-plans — each has a join predicate across it — and every enabled
physical join method.  Bushy trees are explored by default; restricting the
inner side to single relations yields the classic left-deep search.

This is PostgreSQL's search space: ``join_search_one_level`` builds a
clauseless join only when no join clause connects the relations, so no plan
contains a cartesian product a join predicate could replace.  A query whose
join graph is disconnected also plans the unions of its whole components,
whose only splits are cartesian products: it plans each component, then joins
the components by nested-loop cartesian product.  Under the left-deep
restriction that plans only if at most one component joins several relations.

The search is exhaustive for up to :data:`MAX_JOIN_RELATIONS` relations and
refuses wider queries with :class:`~repro.errors.PlanningError` before
enumerating anything.  That is the range where PostgreSQL hands over to its
genetic search (above 12 relations, the paper's footnote 2); no query of the
paper's workloads comes near it.

The enumeration runs in bitmask space.  A split is two integers; whether a
join predicate reaches a relation is one lookup in a per-planner
``neighbours[mask]`` table; each (split, method) alternative is priced from
plain floats by one :class:`~repro.cost.model.JoinPricing`, built per subset
because every split of a subset yields the same output rows; and only the
running winner — strictly cheaper in enumeration order: sub-masks descending,
methods by name — is remembered.  One ``JoinNode`` is built per subset, for
that winner.

A split whose two inputs together already cost at least the running winner
is not priced at all.  The cutoff is exact: cardinalities are non-negative
and :class:`~repro.cost.units.CostUnits` are checked finite and
non-negative, so every join term is ``>= 0``; float addition is monotone,
so the split's total is at least its input cost; and a total equal to the
winner's loses the strict ``<`` tie-break anyway.  A skipped split still
counts towards ``N`` below.

The number of *distinct logical join trees* examined is tracked in
:attr:`DynamicProgrammingPlanner.num_join_trees_considered` — that is the
``N`` of the theoretical analysis in Section 3.3, which counts the trees free
of cartesian products.  Commuted splits ``(outer, inner)`` /
``(inner, outer)`` describe the same logical join and count once; the
cartesian joins of a disconnected query's components do not count.

Incremental re-planning (re-optimization support)
-------------------------------------------------
The ``best[mask]`` memo table survives between rounds: :meth:`replan` takes
the set of join sets whose validated cardinality in Γ changed since the last
round and re-expands only the subsets that contain a dirty join set.  A mask
whose every subset kept its cardinality estimate would re-derive exactly the
same cheapest plan, so skipping it is lossless — the re-planned result is
bit-identical to a from-scratch search with the same Γ, while touching only a
small fraction of the planned masks (the paper's Section 3.3 argument that
re-optimization rounds are cheap, made literal).
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.cardinality.estimator import CardinalityEstimator
from repro.cost.model import CostModel, JoinPricing
from repro.errors import PlanningError
from repro.optimizer.access_paths import best_scan
from repro.optimizer.settings import OptimizerSettings
from repro.plans.nodes import JoinMethod, JoinNode, PlanNode, ScanNode
from repro.sql.ast import JoinPredicate, Query
from repro.storage.catalog import Database

#: Widest query the exhaustive search accepts (PostgreSQL's genetic-search
#: threshold).
MAX_JOIN_RELATIONS = 12


class DynamicProgrammingPlanner:
    """Exhaustive DP search over join orders for one query.

    The planner is reusable across re-optimization rounds: ``plan_joins``
    performs the full bottom-up enumeration, ``replan`` re-expands only the
    masks dirtied by new validated cardinalities.
    """

    def __init__(
        self,
        db: Database,
        query: Query,
        estimator: CardinalityEstimator,
        cost_model: CostModel,
        settings: OptimizerSettings,
    ) -> None:
        self.db = db
        self.query = query
        self.estimator = estimator
        self.cost_model = cost_model
        self.settings = settings
        self.aliases: List[str] = list(query.aliases)
        if len(self.aliases) > MAX_JOIN_RELATIONS:
            raise PlanningError(
                f"query {query.name!r} joins {len(self.aliases)} relations; the "
                f"exhaustive join search plans at most {MAX_JOIN_RELATIONS}"
            )
        self._alias_bit: Dict[str, int] = {alias: 1 << i for i, alias in enumerate(self.aliases)}
        #: Number of distinct logical join trees (unordered splits with a join
        #: predicate across them) examined — the paper's ``N``.
        self.num_join_trees_considered = 0
        #: Masks (scans included) expanded by the most recent
        #: ``plan_joins``/``replan`` call; the incremental-planning metric.
        self.last_masks_expanded = 0
        self._best: Dict[int, PlanNode] = {}

        #: Enabled join methods in tie-break order.
        self._methods = sorted(settings.enabled_join_methods, key=lambda m: m.value)
        #: ``(left_bit, right_bit, predicate)`` in ``query.join_predicates`` order.
        self._edges: List[Tuple[int, int, JoinPredicate]] = [
            (self._alias_bit[p.left_alias], self._alias_bit[p.right_alias], p)
            for p in query.join_predicates
        ]
        #: Per single-relation mask: the relations it can probe by index (it
        #: has an index on its side of a join predicate with them) and its
        #: table's row count — index-nested-loop applicability.
        self._index_probe: Dict[int, Tuple[int, float]] = {}
        adjacent = dict.fromkeys(self._alias_bit.values(), 0)
        for alias, bit in self._alias_bit.items():
            table = query.table_for_alias(alias)
            probed = 0
            for left_bit, right_bit, predicate in self._edges:
                if bit in (left_bit, right_bit):
                    other = left_bit ^ right_bit ^ bit
                    adjacent[bit] |= other
                    if db.has_index(table, predicate.column_for(alias)):
                        probed |= other
            self._index_probe[bit] = (probed, float(db.table(table).num_rows))
        full_mask = (1 << len(self.aliases)) - 1
        #: ``neighbours[mask]``: relations joined by a predicate to a member
        #: of ``mask``.
        self._neighbours: List[int] = [0] * (full_mask + 1)
        for mask in range(1, full_mask + 1):
            low = mask & -mask
            self._neighbours[mask] = self._neighbours[mask ^ low] | adjacent[low]
        #: The planned multi-relation masks, smallest subsets first (the
        #: expansion order): the connected ones, and the masks no join
        #: predicate leaves — on a disconnected join graph, the unions of
        #: whole components.
        self._join_masks = sorted(
            (
                mask for mask in range(1, full_mask + 1)
                if mask & (mask - 1)
                and (self._connected(mask) or not self._neighbours[mask] & ~mask)
            ),
            key=lambda mask: (mask.bit_count(), mask),
        )

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _mask_aliases(self, mask: int) -> Tuple[str, ...]:
        return tuple(alias for alias in self.aliases if self._alias_bit[alias] & mask)

    def _connected(self, mask: int) -> bool:
        """Whether join predicates connect all relations of ``mask``: grow
        from its lowest relation until nothing new is reached."""
        reached = mask & -mask
        while True:
            grown = reached | (self._neighbours[reached] & mask)
            if grown == reached:
                return reached == mask
            reached = grown

    def _expand_scan(self, alias: str) -> None:
        """(Re)compute the best access path for one base relation."""
        bit = self._alias_bit[alias]
        self.last_masks_expanded += 1
        self._best[bit] = best_scan(self.db, self.query, alias, self.estimator, self.cost_model)

    def _cheapest_split(
        self, mask: int, pricing: JoinPricing, connected: bool
    ) -> Optional[Tuple[float, int, int, JoinMethod]]:
        """Cheapest ``(cost, left_mask, right_mask, method)`` over the ordered
        splits of ``mask`` into two planned sub-plans; the first such
        alternative in enumeration order on ties.

        ``connected`` says whether ``mask`` is connected.  If it is, every
        such split has a join predicate across it (both halves are connected
        sub-plans); if not, ``mask`` is a union of whole components and no
        split has one.
        """
        best, index_probe = self._best, self._index_probe
        price = pricing.cheapest
        left_deep = not self.settings.allow_bushy
        winner: Optional[Tuple[float, int, int, JoinMethod]] = None
        bound = math.inf
        submask = (mask - 1) & mask
        while submask:
            left_mask = submask
            right_mask = mask ^ submask
            submask = (submask - 1) & mask
            left_plan = best.get(left_mask)
            right_plan = best.get(right_mask)
            if left_plan is None or right_plan is None:
                continue
            if left_deep and right_mask & (right_mask - 1):
                continue
            if connected:
                # (outer, inner) and (inner, outer) are the same logical join
                # tree: count it at the orientation enumerated first, which is
                # this one unless the commuted split (a larger sub-mask)
                # passed the filters above.
                if left_mask > right_mask or (left_deep and left_mask & (left_mask - 1)):
                    self.num_join_trees_considered += 1
            input_cost = left_plan.estimated_cost + right_plan.estimated_cost
            if input_cost >= bound:
                # Join costs are non-negative, so no method can get below.
                continue
            indexed_inner_rows = None
            probe = index_probe.get(right_mask)
            if probe is not None and probe[0] & left_mask and isinstance(right_plan, ScanNode):
                indexed_inner_rows = probe[1]
            priced = price(
                input_cost, left_plan.estimated_rows, right_plan.estimated_rows,
                connected, indexed_inner_rows, bound,
            )
            if priced is not None:
                bound = priced[0]
                winner = (bound, left_mask, right_mask, priced[1])
        return winner

    def _expand_mask(self, mask: int) -> None:
        """(Re)compute ``best[mask]`` from the current best sub-plans."""
        self.last_masks_expanded += 1
        output_rows = self.estimator.joinset_cardinality(self._mask_aliases(mask))
        pricing = self.cost_model.join_pricing(self._methods, output_rows)
        winner = self._cheapest_split(mask, pricing, self._connected(mask))
        if winner is None:
            return
        cost, left_mask, right_mask, method = winner
        left, right = self._best[left_mask], self._best[right_mask]
        self._best[mask] = JoinNode(
            relations=frozenset(left.relations | right.relations),
            estimated_rows=output_rows,
            estimated_cost=cost,
            left=left,
            right=right,
            method=method,
            predicates=tuple(
                predicate
                for left_bit, right_bit, predicate in self._edges
                if (left_bit & left_mask and right_bit & right_mask)
                or (left_bit & right_mask and right_bit & left_mask)
            ),
        )

    # ------------------------------------------------------------------ #
    # Search
    # ------------------------------------------------------------------ #
    def plan_joins(self) -> PlanNode:
        """Return the cheapest join plan over all relations of the query."""
        if not self.aliases:
            raise PlanningError(f"query {self.query.name!r} references no tables")
        self._best = {}
        self.last_masks_expanded = 0

        for alias in self.aliases:
            self._expand_scan(alias)
        for mask in self._join_masks:
            self._expand_mask(mask)
        return self._full_plan()

    def _full_plan(self) -> PlanNode:
        plan = self._best.get((1 << len(self.aliases)) - 1)
        if plan is None:
            raise PlanningError(
                f"could not build a plan for query {self.query.name!r}; no enabled "
                "join method joins its relations (a disconnected join graph needs "
                "NESTED_LOOP, and bushy trees to join two multi-relation components)"
            )
        return plan

    def _mask_for(self, join_set: FrozenSet[str]) -> Optional[int]:
        """Bitmask of a join set, or None if it references foreign aliases."""
        if not join_set or not all(alias in self._alias_bit for alias in join_set):
            return None
        mask = 0
        for alias in join_set:
            mask |= self._alias_bit[alias]
        return mask

    def replan(
        self,
        estimator: CardinalityEstimator,
        changed_join_sets: Iterable[FrozenSet[str]],
    ) -> PlanNode:
        """Incrementally re-plan after Γ changed on ``changed_join_sets``.

        Only masks containing a dirty join set can see a different
        cardinality estimate anywhere in their sub-plans, so only those are
        re-expanded (bottom-up, smallest first, so re-expanded masks combine
        already-updated sub-plans).  Everything else keeps its memoized best
        plan, making the result identical to a from-scratch search under the
        new Γ.  A planner that has not planned yet runs :meth:`plan_joins`.
        """
        self.estimator = estimator
        if not self._best:
            return self.plan_joins()
        self.last_masks_expanded = 0

        seeds: List[int] = []
        for join_set in changed_join_sets:
            mask = self._mask_for(frozenset(join_set))
            if mask is not None:
                seeds.append(mask)

        if seeds:
            for alias in self.aliases:
                if self._alias_bit[alias] in seeds:
                    self._expand_scan(alias)
            for mask in self._join_masks:
                if any(seed & ~mask == 0 for seed in seeds):
                    self._expand_mask(mask)
        return self._full_plan()
