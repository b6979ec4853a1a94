"""Tests for the join-tree formalism (Definitions 1-4, Appendix E)."""

import pytest

from repro.plans.join_tree import (
    JoinTree,
    TransformationKind,
    classify_transformation,
    is_covered_by,
    plans_identical,
    plans_structurally_equal,
)
from repro.plans.nodes import (
    AggregateNode,
    JoinMethod,
    JoinNode,
    ScanNode,
)


def scan(alias):
    return ScanNode(table=alias.upper(), alias=alias, relations=frozenset({alias}))


def join(left, right, method=JoinMethod.HASH_JOIN):
    return JoinNode(left=left, right=right, method=method,
                    relations=frozenset(left.relations | right.relations))


def left_deep(*aliases, method=JoinMethod.HASH_JOIN):
    plan = scan(aliases[0])
    for alias in aliases[1:]:
        plan = join(plan, scan(alias), method)
    return plan


# The trees of the paper's Figure 1.
def t1():
    return left_deep("a", "b", "c", "d")                      # ((A⋈B)⋈C)⋈D


def t1_prime():
    return join(join(scan("c"), join(scan("a"), scan("b"))), scan("d"))  # (C⋈(A⋈B))⋈D


def t2():
    return join(join(scan("a"), scan("b")), join(scan("c"), scan("d")))  # (A⋈B)⋈(C⋈D)


def t2_prime():
    return join(join(scan("c"), scan("d")), join(scan("a"), scan("b")))  # (C⋈D)⋈(A⋈B)


def is_local(first, second):
    return JoinTree.of(first).is_local_transformation_of(JoinTree.of(second))


class TestJoinTreeRepresentation:
    def test_figure1_t2_join_set(self):
        tree = JoinTree.of(t2())
        assert tree.join_set == {
            frozenset({"a", "b"}), frozenset({"c", "d"}), frozenset({"a", "b", "c", "d"})
        }
        assert len(tree.ordered_joins) == 3

    def test_encoding_of_left_deep_tree(self):
        assert JoinTree.of(t1()).encoding() == ("ab", "abc", "abcd")

    def test_encoding_of_bushy_tree(self):
        assert JoinTree.of(t2()).encoding() == ("ab", "cd", "abcd")

    def test_left_deep_detection(self):
        assert JoinTree.of(t1()).is_left_deep()
        assert not JoinTree.of(t2()).is_left_deep()

    def test_aggregate_node_is_transparent(self):
        plan = AggregateNode(child=t1(), relations=frozenset("abcd"))
        assert JoinTree.of(plan).join_set == JoinTree.of(t1()).join_set


class TestLocalGlobalTransformations:
    def test_tree_is_local_transformation_of_itself(self):
        assert is_local(t1(), t1())

    def test_figure1_local_pairs(self):
        assert is_local(t1(), t1_prime())
        assert is_local(t2(), t2_prime())

    def test_figure1_global_pair(self):
        assert not is_local(t2(), t1())
        assert not is_local(t1(), t2())

    def test_physical_operator_change_is_local(self):
        hash_plan = left_deep("a", "b", "c", method=JoinMethod.HASH_JOIN)
        merge_plan = left_deep("a", "b", "c", method=JoinMethod.MERGE_JOIN)
        assert is_local(hash_plan, merge_plan)

    def test_classify_transformation(self):
        assert classify_transformation(t1(), t1()) is TransformationKind.IDENTICAL
        assert classify_transformation(t1(), t1_prime()) is TransformationKind.LOCAL
        assert classify_transformation(t1(), t2()) is TransformationKind.GLOBAL


class TestCoverage:
    def test_plan_covered_by_itself(self):
        assert is_covered_by(t1(), [t1()])

    def test_local_transformation_is_covered(self):
        """Corollary 2's premise: a local transformation adds no new joins."""
        assert is_covered_by(t1_prime(), [t1()])
        assert is_covered_by(t2_prime(), [t2()])

    def test_example1_t2_not_covered_by_t1(self):
        """Example 1: the join C⋈D of T2 is not observed in T1."""
        assert not is_covered_by(t2(), [t1()])

    def test_union_coverage(self):
        other = join(join(scan("c"), scan("d")), join(scan("a"), scan("b")))
        assert is_covered_by(t2(), [t1(), other])


class TestPlanEquality:
    def test_plans_identical_requires_same_operators(self):
        assert plans_identical(t1(), t1())
        hash_plan = left_deep("a", "b", method=JoinMethod.HASH_JOIN)
        merge_plan = left_deep("a", "b", method=JoinMethod.MERGE_JOIN)
        assert not plans_identical(hash_plan, merge_plan)
        # ... but they are structurally equivalent (Definition 3).
        assert plans_structurally_equal(hash_plan, merge_plan)

    def test_structural_equality_sensitive_to_join_order(self):
        assert not plans_structurally_equal(t1(), t1_prime())

    def test_join_tree_hash_and_eq(self):
        assert JoinTree.of(t1()) == JoinTree.of(t1())
        assert hash(JoinTree.of(t1())) == hash(JoinTree.of(t1()))
        assert JoinTree.of(t1()) != JoinTree.of(t2())


class TestRequiredInputs:
    @pytest.mark.parametrize("missing", ["left", "right"])
    def test_a_join_without_an_input_is_rejected(self, missing):
        inputs = {"left": scan("a"), "right": scan("b"), missing: None}
        with pytest.raises(ValueError, match="missing an input"):
            JoinNode(**inputs)

    def test_a_join_takes_its_relations_from_its_inputs(self):
        node = JoinNode(left=join(scan("a"), scan("b")), right=scan("c"))
        assert node.relations == frozenset({"a", "b", "c"})
        assert node.children() == (node.left, node.right)
