"""Physical plan nodes.

A plan is a tree of :class:`PlanNode` objects:

* :class:`ScanNode` — a base-table access (sequential or index scan) together
  with the local predicates applied at the scan;
* :class:`JoinNode` — a binary join (hash, sort-merge, nested-loop or
  index-nested-loop) over two sub-plans with its equi-join predicates;
* :class:`AggregateNode` — an optional grouped aggregation on top.

Every node carries the optimizer's estimated output cardinality and estimated
cumulative cost; the executor later annotates the same structure with *actual*
cardinalities, which is what the sampling validator and the experiment
harness compare against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro.sql.ast import Aggregate, ColumnRef, JoinPredicate, LocalPredicate


class ScanMethod(str, Enum):
    """Access path for a base table."""

    SEQ_SCAN = "seq_scan"
    INDEX_SCAN = "index_scan"


class JoinMethod(str, Enum):
    """Physical join operator."""

    HASH_JOIN = "hash_join"
    MERGE_JOIN = "merge_join"
    NESTED_LOOP = "nested_loop"
    INDEX_NESTED_LOOP = "index_nested_loop"


@dataclass
class PlanNode:
    """Base class for plan nodes; holds estimates shared by all node types."""

    #: Aliases of the base relations contributing to this node's output.
    relations: FrozenSet[str] = field(default_factory=frozenset)
    #: Optimizer's estimated number of output rows.
    estimated_rows: float = 0.0
    #: Optimizer's estimated cumulative cost (this node + its inputs).
    estimated_cost: float = 0.0

    def children(self) -> Sequence["PlanNode"]:
        """Child nodes, left to right."""
        return ()

    def walk(self) -> Iterator["PlanNode"]:
        """Yield this node and all descendants, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()

    def join_nodes(self) -> List["JoinNode"]:
        """All join nodes in the plan, pre-order."""
        return [node for node in self.walk() if isinstance(node, JoinNode)]

    def scan_nodes(self) -> List["ScanNode"]:
        """All scan nodes in the plan, pre-order."""
        return [node for node in self.walk() if isinstance(node, ScanNode)]

    def depth(self) -> int:
        """Height of the plan tree (a single scan has depth 1)."""
        kids = self.children()
        if not kids:
            return 1
        return 1 + max(child.depth() for child in kids)


@dataclass
class ScanNode(PlanNode):
    """Access a base table under ``alias`` applying ``predicates``."""

    table: str = ""
    alias: str = ""
    method: ScanMethod = ScanMethod.SEQ_SCAN
    predicates: Tuple[LocalPredicate, ...] = ()
    #: Column used by an index scan (None for sequential scans).
    index_column: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.relations:
            self.relations = frozenset({self.alias})

    def signature(self) -> tuple:
        """Hashable description used for structural plan equality."""
        return (
            "scan",
            self.table,
            self.alias,
            self.method.value,
            self.index_column,
            tuple(sorted((p.column, p.op, repr(p.value)) for p in self.predicates)),
        )

    def describe(self, indent: int = 0) -> str:
        """One-line human-readable description (used in plan pretty-printing)."""
        parts = [f"{self.method.value} {self.table}"]
        if self.alias != self.table:
            parts.append(f"as {self.alias}")
        if self.index_column:
            parts.append(f"using index({self.index_column})")
        if self.predicates:
            parts.append("filter[" + " and ".join(str(p) for p in self.predicates) + "]")
        return " " * indent + " ".join(parts) + f"  (rows={self.estimated_rows:.1f})"


@dataclass
class JoinNode(PlanNode):
    """Join ``left`` and ``right`` on ``predicates`` using ``method``."""

    left: Optional[PlanNode] = None
    right: Optional[PlanNode] = None
    method: JoinMethod = JoinMethod.HASH_JOIN
    predicates: Tuple[JoinPredicate, ...] = ()

    def __post_init__(self) -> None:
        if not self.relations and self.left is not None and self.right is not None:
            self.relations = frozenset(self.left.relations | self.right.relations)

    def children(self) -> Sequence[PlanNode]:
        return tuple(child for child in (self.left, self.right) if child is not None)

    def signature(self) -> tuple:
        """Hashable description used for structural plan equality."""
        left_sig = self.left.signature() if self.left is not None else None
        right_sig = self.right.signature() if self.right is not None else None
        return (
            "join",
            self.method.value,
            tuple(sorted(str(p.normalized()) for p in self.predicates)),
            left_sig,
            right_sig,
        )

    def describe(self, indent: int = 0) -> str:
        condition = " and ".join(str(p) for p in self.predicates) or "true"
        header = (
            " " * indent
            + f"{self.method.value} on [{condition}]  (rows={self.estimated_rows:.1f}, "
            + f"cost={self.estimated_cost:.1f})"
        )
        lines = [header]
        if self.left is not None:
            lines.append(self.left.describe(indent + 2))
        if self.right is not None:
            lines.append(self.right.describe(indent + 2))
        return "\n".join(lines)


@dataclass
class AggregateNode(PlanNode):
    """Grouped aggregation over a single input plan."""

    child: Optional[PlanNode] = None
    group_by: Tuple[ColumnRef, ...] = ()
    aggregates: Tuple[Aggregate, ...] = ()

    def __post_init__(self) -> None:
        if not self.relations and self.child is not None:
            self.relations = frozenset(self.child.relations)

    def children(self) -> Sequence[PlanNode]:
        return (self.child,) if self.child is not None else ()

    def signature(self) -> tuple:
        child_sig = self.child.signature() if self.child is not None else None
        return (
            "aggregate",
            tuple(str(c) for c in self.group_by),
            tuple((a.func, a.alias, a.column) for a in self.aggregates),
            child_sig,
        )

    def describe(self, indent: int = 0) -> str:
        keys = ", ".join(str(c) for c in self.group_by) or "<all>"
        funcs = ", ".join(a.output_name for a in self.aggregates)
        lines = [" " * indent + f"aggregate group by [{keys}] compute [{funcs}]"]
        if self.child is not None:
            lines.append(self.child.describe(indent + 2))
        return "\n".join(lines)
