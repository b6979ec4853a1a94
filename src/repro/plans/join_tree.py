"""The join-tree formalism of the paper (Section 3.1, Appendix E).

The paper reasons about re-optimization through the *join tree* ``tree(P)`` of
a plan ``P``:

* ``tree(P)`` is the set of logical joins contained in ``P``; each join is
  identified by the relations it combines.  For example, the bushy tree
  ``(A ⋈ B) ⋈ (C ⋈ D)`` is ``{AB, CD, ABCD}``.
* Two join trees are **local transformations** of each other when they contain
  the same set of *unordered* logical joins (Definition 1) — i.e. they differ
  only in left/right subtree exchanges (and, at the plan level, in physical
  operator choices).  Otherwise they are **global transformations**.
* A plan ``P`` is **covered** by a set of plans ``𝒫`` when every join of
  ``tree(P)`` appears in the union of the join trees of ``𝒫``
  (Definition 2).  Coverage is the key to the termination argument
  (Theorem 1): a covered plan adds nothing new to the validated statistics Γ.
* Two plans are **structurally equivalent** when their join trees are
  identical as ordered trees (Definition 3); full plan equality additionally
  compares physical operators and is what Algorithm 1's termination test uses.

This module exposes those notions for arbitrary physical plans produced by
:mod:`repro.optimizer`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import FrozenSet, Iterable, List, Sequence, Set, Tuple

from repro.plans.nodes import AggregateNode, JoinNode, PlanNode, ScanNode
from repro.sql.ast import Query

#: An ordered logical join: (leaves of the left subtree, leaves of the right
#: subtree), each in left-to-right leaf order — the "encoding" of Appendix E.
OrderedJoin = Tuple[Tuple[str, ...], Tuple[str, ...]]

#: An unordered logical join: the set of relations the join combines.
UnorderedJoin = FrozenSet[str]


def _leaf_order(node: PlanNode) -> Tuple[str, ...]:
    """Return the base-relation aliases under ``node`` in left-to-right order."""
    from repro.plans.nodes import AggregateNode, ScanNode

    if isinstance(node, ScanNode):
        return (node.alias,)
    if isinstance(node, JoinNode):
        left = _leaf_order(node.left) if node.left is not None else ()
        right = _leaf_order(node.right) if node.right is not None else ()
        return left + right
    if isinstance(node, AggregateNode) and node.child is not None:
        return _leaf_order(node.child)
    return tuple(sorted(node.relations))


@dataclass(frozen=True)
class JoinTree:
    """The logical join skeleton of a physical plan."""

    #: Ordered joins in post-order (children before parents).
    ordered_joins: Tuple[OrderedJoin, ...]

    @classmethod
    def of(cls, plan: PlanNode) -> "JoinTree":
        """Extract the join tree of a physical plan."""
        ordered: List[OrderedJoin] = []

        def visit(node: PlanNode) -> None:
            for child in node.children():
                visit(child)
            if isinstance(node, JoinNode):
                left = _leaf_order(node.left) if node.left is not None else ()
                right = _leaf_order(node.right) if node.right is not None else ()
                ordered.append((left, right))

        visit(plan)
        return cls(ordered_joins=tuple(ordered))

    # ------------------------------------------------------------------ #
    # Derived representations
    # ------------------------------------------------------------------ #
    @property
    def unordered_joins(self) -> Tuple[UnorderedJoin, ...]:
        """Each join as the frozenset of relations it combines (with multiplicity)."""
        return tuple(frozenset(left + right) for left, right in self.ordered_joins)

    @property
    def join_set(self) -> FrozenSet[UnorderedJoin]:
        """The set of unordered joins — ``tree(P)`` as the paper writes it."""
        return frozenset(self.unordered_joins)

    def encoding(self) -> Tuple[str, ...]:
        """The bottom-up, left-to-right encoding of Appendix E (e.g. ``("AB", "ABC")``)."""
        return tuple("".join(left + right) for left, right in self.ordered_joins)

    def is_left_deep(self) -> bool:
        """True if every join's right input is a single base relation."""
        return all(len(right) == 1 for _, right in self.ordered_joins)

    # ------------------------------------------------------------------ #
    # Relations between trees
    # ------------------------------------------------------------------ #
    def is_local_transformation_of(self, other: "JoinTree") -> bool:
        """Definition 1: same multiset of unordered logical joins."""
        return sorted(self.unordered_joins, key=sorted) == sorted(
            other.unordered_joins, key=sorted
        )

    def is_covered_by(self, others: Iterable["JoinTree"]) -> bool:
        """Definition 2: every join of this tree appears in the union of ``others``."""
        union: Set[UnorderedJoin] = set()
        for tree in others:
            union.update(tree.join_set)
        return self.join_set <= union

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JoinTree):
            return NotImplemented
        return self.ordered_joins == other.ordered_joins

    def __hash__(self) -> int:
        return hash(self.ordered_joins)


class TransformationKind(str, Enum):
    """Classification of the step from one plan to the next during re-optimization."""

    IDENTICAL = "identical"
    LOCAL = "local"
    GLOBAL = "global"


def classify_transformation(previous: PlanNode, current: PlanNode) -> TransformationKind:
    """Classify how ``current`` relates to ``previous`` (Definition 1 applied to plans)."""
    prev_tree = JoinTree.of(previous)
    curr_tree = JoinTree.of(current)
    if plans_structurally_equal(previous, current):
        return TransformationKind.IDENTICAL
    if curr_tree.is_local_transformation_of(prev_tree):
        return TransformationKind.LOCAL
    return TransformationKind.GLOBAL


def is_covered_by(plan: PlanNode, plans: Sequence[PlanNode]) -> bool:
    """Definition 2 lifted to physical plans."""
    return JoinTree.of(plan).is_covered_by(JoinTree.of(p) for p in plans)


def plans_identical(first: PlanNode, second: PlanNode) -> bool:
    """Full plan equality: same join order *and* same physical operators.

    This is the termination test of Algorithm 1 (line 6: "if P_i is the same
    as P_{i-1}").
    """
    return first.signature() == second.signature()


def plans_structurally_equal(first: PlanNode, second: PlanNode) -> bool:
    """Definition 3: identical ordered join trees (physical operators may differ)."""
    return JoinTree.of(first).ordered_joins == JoinTree.of(second).ordered_joins


def rebind_plan(plan: PlanNode, query: Query) -> PlanNode:
    """The same plan *shape* with scan predicates taken from ``query``.

    A cached parameterized plan embeds the constants of the binding it was
    produced for — its scan nodes filter on the *old* literals.  Executing it
    for a new binding of the same template therefore requires rebinding:
    every scan keeps its access path (method, index column) but swaps its
    predicate list for the bound query's local predicates on that alias.
    Join structure, join methods and the aggregation block are untouched —
    they are binding-independent — and the optimizer's row/cost estimates are
    kept as-is (they describe the binding the plan was chosen under; the
    sampling validator, not the estimates, decides whether that choice still
    stands).
    """
    if isinstance(plan, AggregateNode) and plan.child is not None:
        return replace(plan, child=rebind_plan(plan.child, query))
    if isinstance(plan, JoinNode) and plan.left is not None and plan.right is not None:
        return replace(
            plan,
            left=rebind_plan(plan.left, query),
            right=rebind_plan(plan.right, query),
        )
    if isinstance(plan, ScanNode):
        return replace(plan, predicates=tuple(query.local_predicates_for(plan.alias)))
    return plan
