"""Physical plan nodes.

A plan is a tree of :class:`PlanNode` objects:

* :class:`ScanNode` — a base-table access (sequential or index scan) together
  with the local predicates applied at the scan;
* :class:`JoinNode` — a binary join (hash, sort-merge, nested-loop or
  index-nested-loop) over two sub-plans with its equi-join predicates;
* :class:`AggregateNode` — an optional grouped aggregation on top.

Every node carries the optimizer's estimated output cardinality and estimated
cumulative cost; the executor later annotates the same structure with *actual*
cardinalities, which is what the sampling validator and the paper
scorecard compare against.
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

    left: PlanNode = field(kw_only=True)
    right: PlanNode = field(kw_only=True)
    method: JoinMethod = JoinMethod.HASH_JOIN
    predicates: Tuple[JoinPredicate, ...] = ()

    def __post_init__(self) -> None:
        if self.left is None or self.right is None:
            raise ValueError("join node is missing an input")
        if not self.relations:
            self.relations = frozenset(self.left.relations | self.right.relations)

    def children(self) -> Sequence[PlanNode]:
        return (self.left, self.right)

    def signature(self) -> tuple:
        """Hashable description used for structural plan equality."""
        return (
            "join",
            self.method.value,
            tuple(sorted(str(p.normalized()) for p in self.predicates)),
            self.left.signature(),
            self.right.signature(),
        )

    def describe(self, indent: int = 0) -> str:
        condition = " and ".join(str(p) for p in self.predicates) or "true"
        header = (
            " " * indent
            + f"{self.method.value} on [{condition}]  (rows={self.estimated_rows:.1f}, "
            + f"cost={self.estimated_cost:.1f})"
        )
        return "\n".join(
            [header, self.left.describe(indent + 2), self.right.describe(indent + 2)]
        )


@dataclass
class AggregateNode(PlanNode):
    """Grouped aggregation over a single input plan."""

    child: PlanNode = field(kw_only=True)
    group_by: Tuple[ColumnRef, ...] = ()
    aggregates: Tuple[Aggregate, ...] = ()

    def __post_init__(self) -> None:
        if self.child is None:
            raise ValueError("aggregate node is missing its input")
        if not self.relations:
            self.relations = frozenset(self.child.relations)

    def children(self) -> Sequence[PlanNode]:
        return (self.child,)

    def signature(self) -> tuple:
        return (
            "aggregate",
            tuple(str(c) for c in self.group_by),
            tuple((a.func, a.alias, a.column) for a in self.aggregates),
            self.child.signature(),
        )

    def describe(self, indent: int = 0) -> str:
        keys = ", ".join(str(c) for c in self.group_by) or "<all>"
        funcs = ", ".join(a.output_name for a in self.aggregates)
        header = " " * indent + f"aggregate group by [{keys}] compute [{funcs}]"
        return header + "\n" + self.child.describe(indent + 2)
