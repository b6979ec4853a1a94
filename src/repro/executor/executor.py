"""Plan execution with full instrumentation.

``Executor.execute_plan`` evaluates a physical plan bottom-up over the
in-memory tables and records, for every node:

* the *actual* output cardinality (what the sampling validator and the
  per-experiment reports compare against the optimizer's estimates);
* the *actual* resource vector — the cost-model formulas evaluated at the
  actual cardinalities.

The scalar obtained by pricing that resource vector with the cost units is
the **simulated running time** used throughout the paper scorecard: it is a
deterministic, machine-independent proxy for the wall-clock numbers the paper
reports from its 10 GB PostgreSQL installation, and it preserves the ordering
and rough ratios between plans because it charges exactly the work the plan
actually performs.  Wall-clock time is measured as well and reported next to
the simulated time.

All relational kernels come from :mod:`repro.relalg`.  The executor adds
four physical-execution concerns on top:

* **join dispatch** — ``HASH_JOIN`` runs the hash kernel, ``MERGE_JOIN`` the
  sort-merge kernel, ``NESTED_LOOP`` the block nested-loop kernel and
  ``INDEX_NESTED_LOOP`` a probe of the inner table's sorted index, so the
  cost profiles the optimizer distinguishes correspond to genuinely
  different algorithms.  The probe runs only where it is the cheaper
  operator at the actual cardinalities (:meth:`Executor._index_probe`);
  any other ``INDEX_NESTED_LOOP`` node runs the hash kernel;
* **dead-column elimination** — every scan and join output carries exactly
  :func:`live_columns` of its join set: what the output stage reads plus the
  join keys a *later* join still needs.  A key is dropped by the join that
  consumes it (a :class:`~repro.relalg.Relation` tracks its row count
  explicitly, which keeps ``COUNT(*)`` correct even with no columns left);
* **one output stage** — :func:`finalize_canonical_execution` ends every
  execution path (a plan, a served request, either sharded merge): the
  aggregate or projection runs there, never inside the join pipeline;
* **one process per query** — every operator runs serially in the caller's
  process, so the per-node instrumentation (actual cardinalities, resource
  vectors, simulated cost) is exactly what the kernels did.  The sharded
  coordinator runs each shard's fragment through this executor in the same
  process.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import AbstractSet, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.cost.model import CostModel, ResourceVector
from repro.cost.units import CostUnits, DEFAULT_COST_UNITS
from repro.errors import ExecutionError
from repro.executor.materialization import canonicalize_relation
from repro.relalg import (
    Relation,
    concat_relations,
    filter_relation,
    group_aggregate,
    hash_join,
    index_nested_loop_join,
    merge_join,
    merge_partials,
    nested_loop_join,
)
from repro.plans.nodes import (
    AggregateNode,
    JoinMethod,
    JoinNode,
    PlanNode,
    ScanMethod,
    ScanNode,
)
from repro.sql.ast import Query
from repro.storage.catalog import Database
from repro.storage.index import SortedIndex


@dataclass
class NodeExecution:
    """Instrumentation for one plan node."""

    relations: FrozenSet[str]
    kind: str
    actual_rows: int
    estimated_rows: float
    resources: ResourceVector


@dataclass
class ExecutionResult:
    """The output of executing one plan."""

    columns: Relation
    num_rows: int
    #: Per-node instrumentation, in post-order (children before parents).
    node_executions: List[NodeExecution] = field(default_factory=list)
    #: Sum of all nodes' resource vectors.
    actual_resources: ResourceVector = field(default_factory=ResourceVector)
    #: The resource vectors priced with the executor's cost units — the
    #: deterministic "simulated running time" used by the benchmarks.
    simulated_cost: float = 0.0
    #: Measured wall-clock execution time in seconds.
    wall_seconds: float = 0.0

    def actual_cardinalities(self) -> Dict[FrozenSet[str], int]:
        """Map each join set touched by the plan to its actual cardinality.

        Singleton sets are included: every scan contributes its *post-filter*
        output count, so single-table (join-free) results report their true
        cardinality too.  Aggregation nodes are skipped: they share the
        relation set of the join below them but their output count is the
        number of groups, not the join-set cardinality the paper's Γ talks
        about.
        """
        return {
            execution.relations: execution.actual_rows
            for execution in self.node_executions
            if execution.kind != "aggregate"
        }

    def price(self, cost_model: CostModel) -> "ExecutionResult":
        """Set the resource total and simulated cost from the node executions."""
        total = ResourceVector()
        for execution in self.node_executions:
            total = total + execution.resources
        self.actual_resources = total
        self.simulated_cost = cost_model.cost(total)
        return self


def live_columns(
    query: Optional[Query], join_set: AbstractSet[str]
) -> Optional[FrozenSet[str]]:
    """Qualified columns a relation over ``join_set`` carries; ``None`` = all.

    The one liveness rule: the output stage's input columns (aggregate
    arguments and group keys, else the projections) of aliases in the set,
    plus the columns of join predicates whose other side lies *outside* it.
    A pure function of the query and the join set — plan nodes only ever
    carry ``query.join_predicates_between(left, right)`` — so scans, every
    join method and every shard agree on it under any join order.
    ``SELECT *`` and plans executed without a query keep all.
    """
    if query is None:
        return None
    if query.aggregates or query.group_by:
        output = [(a.alias, a.column) for a in query.aggregates if a.column is not None]
        output += [(ref.alias, ref.column) for ref in query.group_by]
    elif query.projections:
        output = [(ref.alias, ref.column) for ref in query.projections]
    else:
        return None
    live = {f"{alias}.{column}" for alias, column in output if alias in join_set}
    for predicate in query.join_predicates:
        if predicate.left_alias in join_set and predicate.right_alias not in join_set:
            live.add(f"{predicate.left_alias}.{predicate.left_column}")
        elif predicate.right_alias in join_set and predicate.left_alias not in join_set:
            live.add(f"{predicate.right_alias}.{predicate.right_column}")
    return frozenset(live)


def split_final_aggregate(plan: PlanNode) -> Tuple[PlanNode, Optional[AggregateNode]]:
    """Split ``plan`` into its join pipeline and the final aggregate, if any."""
    if isinstance(plan, AggregateNode):
        return plan.child, plan
    return plan, None


class Executor:
    """Evaluate physical plans over the database."""

    def __init__(self, db: Database, cost_units: CostUnits = DEFAULT_COST_UNITS) -> None:
        self.db = db
        self.cost_model = CostModel(units=cost_units)

    # ------------------------------------------------------------------ #
    # Node evaluation
    # ------------------------------------------------------------------ #
    def _execute_scan(
        self,
        node: ScanNode,
        result: ExecutionResult,
        query: Optional[Query],
    ) -> Relation:
        table = self.db.table(node.table)
        alias = node.alias
        predicates = list(node.predicates)

        keep = live_columns(query, {alias})
        load = [
            name
            for name in table.column_names
            if keep is None
            or f"{alias}.{name}" in keep
            or any(p.column == name for p in predicates)
        ]

        # A plan cached before its table was replaced or dropped may name an
        # index that went with it: it runs as a sequential scan instead.
        if (
            node.method is ScanMethod.INDEX_SCAN
            and node.index_column is not None
            and self.db.has_index(node.table, node.index_column)
        ):
            index_predicate = next(
                (p for p in predicates if p.column == node.index_column and p.op == "="), None
            )
        else:
            index_predicate = None

        if index_predicate is not None:
            index = self.db.index(node.table, node.index_column)
            row_ids = index.lookup(index_predicate.value)
            matched = len(row_ids)
            relation = Relation.from_table(table, alias, load).take(row_ids)
            residual = [p for p in predicates if p is not index_predicate]
            relation = filter_relation(relation, alias, residual, keep=keep)
            output_rows = relation.num_rows
            resources = self.cost_model.index_scan_resources(
                table.num_rows, matched, len(residual), output_rows
            )
        else:
            relation = Relation.from_table(table, alias, load)
            relation = filter_relation(relation, alias, predicates, keep=keep)
            output_rows = relation.num_rows
            resources = self.cost_model.seq_scan_resources(
                table.num_rows, len(predicates), output_rows
            )

        result.node_executions.append(
            NodeExecution(
                relations=frozenset(node.relations),
                kind=f"scan:{node.method.value}",
                actual_rows=output_rows,
                estimated_rows=node.estimated_rows,
                resources=resources,
            )
        )
        return relation

    def _index_probe(
        self, node: JoinNode, outer: Relation
    ) -> Optional[Tuple[np.ndarray, SortedIndex]]:
        """Outer keys and inner index of an ``INDEX_NESTED_LOOP`` node's probe.

        ``None`` — the node runs the hash kernel — unless all of these hold:
        the inner is an unfiltered base-table scan; the node's *only*
        predicate is on an indexed integer column of that table (probing one
        column of a composite key expands every partial match before the
        residual cuts them down); the outer key is a plain integer column;
        and the probe is the cheaper operator at the *actual* cardinalities —
        the cost model's INL term, ``outer · log2(inner table)``, against one
        pass over the inner.
        """
        inner = node.right
        if not isinstance(inner, ScanNode) or inner.predicates or len(node.predicates) != 1:
            return None
        predicate = node.predicates[0]
        column = predicate.column_for(inner.alias)
        table = self.db.table(inner.table)
        if not self.db.has_index(inner.table, column) or table.schema.column(column).type != "int":
            return None
        outer_alias = (
            predicate.right_alias if predicate.left_alias == inner.alias else predicate.left_alias
        )
        keys = outer[f"{outer_alias}.{predicate.column_for(outer_alias)}"]
        if not isinstance(keys, np.ndarray) or not np.can_cast(keys.dtype, np.int64):
            return None
        if outer.num_rows * math.log2(max(table.num_rows, 2)) >= table.num_rows:
            return None
        return keys, self.db.index(inner.table, column)

    def _execute_join(
        self,
        node: JoinNode,
        result: ExecutionResult,
        query: Optional[Query],
    ) -> Relation:
        left_relation = self._execute_node(node.left, result, query)
        right_relation = self._execute_node(node.right, result, query)
        left_rows = left_relation.num_rows
        right_rows = right_relation.num_rows
        keep = live_columns(query, node.relations)

        if node.method is JoinMethod.MERGE_JOIN:
            joined = merge_join(
                left_relation, right_relation, node.predicates,
                frozenset(node.left.relations), keep=keep,
            )
        elif node.method is JoinMethod.NESTED_LOOP:
            joined = nested_loop_join(
                left_relation, right_relation, node.predicates,
                frozenset(node.left.relations), keep=keep,
            )
        elif (
            node.method is JoinMethod.INDEX_NESTED_LOOP
            and (probe := self._index_probe(node, left_relation)) is not None
        ):
            joined = index_nested_loop_join(left_relation, right_relation, *probe, keep=keep)
        elif node.method in (JoinMethod.HASH_JOIN, JoinMethod.INDEX_NESTED_LOOP):
            # An INDEX_NESTED_LOOP node ``_index_probe`` turned down runs the
            # hash kernel (its cost profile differs, its output not).
            joined = hash_join(
                left_relation, right_relation, node.predicates,
                frozenset(node.left.relations), keep=keep,
            )
        else:
            raise ExecutionError(f"unsupported join method {node.method!r}")
        output_rows = joined.num_rows

        inner_table_rows = 0.0
        if node.method is JoinMethod.INDEX_NESTED_LOOP and isinstance(node.right, ScanNode):
            inner_table_rows = float(self.db.table(node.right.table).num_rows)
        resources = self.cost_model.join_resources(
            node.method,
            outer_rows=left_rows,
            inner_rows=right_rows,
            output_rows=output_rows,
            inner_table_rows=inner_table_rows,
        )
        result.node_executions.append(
            NodeExecution(
                relations=frozenset(node.relations),
                kind=f"join:{node.method.value}",
                actual_rows=output_rows,
                estimated_rows=node.estimated_rows,
                resources=resources,
            )
        )
        return joined

    def _execute_node(
        self,
        node: PlanNode,
        result: ExecutionResult,
        query: Optional[Query],
    ) -> Relation:
        if isinstance(node, ScanNode):
            return self._execute_scan(node, result, query)
        if isinstance(node, JoinNode):
            return self._execute_join(node, result, query)
        raise ExecutionError(f"{type(node).__name__} is not a join pipeline node")

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def execute_fragment(
        self, fragment: PlanNode, query: Optional[Query] = None
    ) -> ExecutionResult:
        """Execute one join pipeline (scans and joins) without the output stage.

        The fragment runs with the usual per-node instrumentation and its
        output relation is returned *raw* (``result.columns``, encoded columns
        untouched), ready for :func:`finalize_canonical_execution`.  It
        carries :func:`live_columns` of ``query`` and the fragment's join
        set — whatever plan the fragment was cut from.
        """
        result = ExecutionResult(columns=Relation(), num_rows=0)
        started = time.perf_counter()
        relation = self._execute_node(fragment, result, query)
        result.wall_seconds = time.perf_counter() - started
        result.columns = relation
        result.num_rows = relation.num_rows
        return result.price(self.cost_model)

    def execute_plan(self, plan: PlanNode, query: Optional[Query] = None) -> ExecutionResult:
        """Execute a physical plan and return the instrumented result."""
        join_plan, aggregate = split_final_aggregate(plan)
        return finalize_canonical_execution(
            self, query, [self.execute_fragment(join_plan, query)], aggregate
        )

    def execute(self, query: Query, plan: Optional[PlanNode] = None) -> ExecutionResult:
        """Optimize (if needed) and execute ``query``."""
        if plan is None:
            from repro.optimizer.optimizer import Optimizer

            plan = Optimizer(self.db).optimize(query)
        return self.execute_plan(plan, query)


def finalize_canonical_execution(
    executor: Executor,
    query: Optional[Query],
    parts: Sequence[ExecutionResult],
    aggregate: Optional[AggregateNode] = None,
    order_rows: bool = False,
    partial_states: bool = False,
) -> ExecutionResult:
    """The output stage: every execution path ends here.

    It turns executed join pipelines into the query's canonical output form.
    ``parts`` are one pipeline, or one per shard in canonical shard order;
    their rows concatenate in that order (encoded columns stay encoded).

    * With ``order_rows`` (bare projections, see
      :func:`~repro.executor.materialization.needs_canonical_order`) the rows
      are first ordered by the output stage's input columns,
      ``live_columns(query, all aliases)``: rows equal on every column the
      output reads are interchangeable, so that order makes the output bytes
      a function of the row multiset — never of the plan or of the sharding.
      An aggregate needs no such order: ``group_aggregate`` is already a
      function of the row multiset (correctly rounded ``SUM``/``AVG``).
    * ``aggregate`` then runs over the rows with ``group_aggregate`` or, when
      the parts carry shard :func:`~repro.relalg.aggregate.partial_aggregate`
      states (``partial_states``), merges them with ``merge_partials``.
      Without one, a query with a SELECT list is projected to it in SELECT
      order (not join order: the column order must not show the plan).
    * Columns are decoded.

    The result reports the parts' per-node instrumentation followed by the
    aggregate's, their resources priced with the executor's cost units, and
    ``wall_seconds`` as total *work* (the parts' sum plus this stage).
    """
    started = time.perf_counter()
    relation = concat_relations([part.columns for part in parts])
    node_executions = [execution for part in parts for execution in part.node_executions]
    if order_rows and query is not None:
        relation = canonicalize_relation(relation, live_columns(query, frozenset(query.aliases)))
    if aggregate is not None:
        kernel = merge_partials if partial_states else group_aggregate
        output = kernel(relation, aggregate.group_by, aggregate.aggregates)
        node_executions.append(
            NodeExecution(
                relations=frozenset(aggregate.relations),
                kind="aggregate",
                actual_rows=output.num_rows,
                estimated_rows=aggregate.estimated_rows,
                resources=executor.cost_model.aggregate_resources(
                    relation.num_rows, output.num_rows
                ),
            )
        )
    elif query is not None and query.projections and not query.aggregates and not query.group_by:
        names = [f"{ref.alias}.{ref.column}" for ref in query.projections]
        output = Relation(
            {name: relation[name] for name in names if name in relation},
            num_rows=relation.num_rows,
        )
    else:
        output = relation
    result = ExecutionResult(
        columns=output.decoded(), num_rows=output.num_rows, node_executions=node_executions
    )
    result.wall_seconds = sum(part.wall_seconds for part in parts) + (
        time.perf_counter() - started
    )
    return result.price(executor.cost_model)
