"""Physical plans and the join-tree formalism of Section 3.1 / Appendix E."""

from __future__ import annotations

from repro.plans.nodes import (
    AggregateNode,
    JoinMethod,
    JoinNode,
    PlanNode,
    ScanMethod,
    ScanNode,
)
from repro.plans.join_tree import (
    JoinTree,
    TransformationKind,
    classify_transformation,
    is_covered_by,
    plans_structurally_equal,
)

__all__ = [
    "AggregateNode",
    "JoinMethod",
    "JoinNode",
    "JoinTree",
    "PlanNode",
    "ScanMethod",
    "ScanNode",
    "TransformationKind",
    "classify_transformation",
    "is_covered_by",
    "plans_structurally_equal",
]
