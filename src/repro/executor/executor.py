"""Plan execution with full instrumentation.

``Executor.execute_plan`` evaluates a physical plan bottom-up over the
in-memory tables and records, for every node:

* the *actual* output cardinality (what the sampling validator and the
  per-experiment reports compare against the optimizer's estimates);
* the *actual* resource vector — the cost-model formulas evaluated at the
  actual cardinalities.

The scalar obtained by pricing that resource vector with the cost units is
the **simulated running time** used throughout the benchmark harness: it is a
deterministic, machine-independent proxy for the wall-clock numbers the paper
reports from its 10 GB PostgreSQL installation, and it preserves the ordering
and rough ratios between plans because it charges exactly the work the plan
actually performs.  Wall-clock time is measured as well and reported next to
the simulated time.

All relational kernels come from :mod:`repro.relalg`.  The executor adds
three physical-execution concerns on top:

* **join dispatch** — ``HASH_JOIN`` (and ``INDEX_NESTED_LOOP``, a lookup-based
  method) runs the hash kernel, ``MERGE_JOIN`` the sort-merge kernel and
  ``NESTED_LOOP`` the block nested-loop kernel, so the cost profiles the
  optimizer distinguishes correspond to genuinely different algorithms;
* **projection pushdown** — scans only materialise the columns later
  predicates, join keys, aggregates or the output need, so joins never carry
  dead columns (a :class:`~repro.relalg.Relation` tracks its row count
  explicitly, which keeps ``COUNT(*)`` correct even with no columns left);
* **morsel-driven parallelism** — when constructed with a parallel
  :class:`~repro.relalg.TaskScheduler`, plan pipelines execute
  morsel-at-a-time: scan filters evaluate one morsel task per chunk, hash
  joins run partition-parallel build/probe tasks, and grouped aggregation
  reduces group-aligned chunks, all on the *shared* worker pool (the same
  pool the sampling validator and the workload driver use).  On the default
  process backend the kernels run on worker *processes* with columns shipped
  once through ``multiprocessing.shared_memory`` descriptors (zero-copy
  attach, no GIL contention), and the executor labels each kernel with its
  pipeline stage (``"filter"``, ``"join"``, ``"aggregate"``) so the
  scheduler's adaptive morsel sizer can grow chunk sizes per stage until
  per-task overhead is negligible.  Every parallel path is bit-identical to
  its serial counterpart, so the per-node instrumentation (actual
  cardinalities, resource vectors, simulated cost) is unchanged by the
  worker count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set

from repro.cost.model import CostModel, ResourceVector
from repro.cost.units import CostUnits, DEFAULT_COST_UNITS
from repro.errors import ExecutionError
from repro.executor.materialization import IntermediateRegistry
from repro.relalg import (
    DEFAULT_MORSEL_ROWS,
    Relation,
    TaskScheduler,
    filter_relation,
    group_aggregate,
    merge_join,
    nested_loop_join,
    parallel_hash_join,
)
from repro.plans.nodes import (
    AggregateNode,
    JoinMethod,
    JoinNode,
    MaterializedNode,
    PlanNode,
    ScanMethod,
    ScanNode,
)
from repro.sql.ast import Query
from repro.storage.catalog import Database


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
        cardinality too — which is what adaptive gating and the golden suite
        assert.  Aggregation nodes are skipped: they share the relation set
        of the join below them but their output count is the number of
        groups, not the join-set cardinality the paper's Γ talks about.
        """
        return {
            execution.relations: execution.actual_rows
            for execution in self.node_executions
            if execution.kind != "aggregate"
        }


def required_columns(plan: PlanNode, query: Optional[Query]) -> Optional[Dict[str, Set[str]]]:
    """Columns each alias must carry past its scan, or ``None`` to keep all.

    The set is the union of the plan's join-key columns and everything the
    query's output (projections, aggregates, group-by) reads.  ``SELECT *``
    queries (and plans executed without a query) disable pushdown.

    For a *complete* plan (one covering every alias, so every join predicate
    of the query is applied at some join node) the result is independent of
    the join order: each alias carries its output columns plus all of its
    join-predicate columns.  The adaptive executor relies on this — an
    intermediate materialized under one plan carries exactly the columns any
    re-planned join order needs above it.
    """
    if query is None:
        return None
    if query.aggregates or query.group_by:
        output = {
            (a.alias, a.column)
            for a in query.aggregates
            if a.alias is not None and a.column is not None
        }
        output |= {(ref.alias, ref.column) for ref in query.group_by}
    elif query.projections:
        output = {(ref.alias, ref.column) for ref in query.projections}
    else:
        return None
    required: Dict[str, Set[str]] = {}
    for alias, column in output:
        required.setdefault(alias, set()).add(column)
    for node in plan.walk():
        if isinstance(node, JoinNode):
            for predicate in node.predicates:
                required.setdefault(predicate.left_alias, set()).add(predicate.left_column)
                required.setdefault(predicate.right_alias, set()).add(predicate.right_column)
        elif isinstance(node, ScanNode):
            required.setdefault(node.alias, set())
    return required


class Executor:
    """Evaluate physical plans over the database."""

    def __init__(
        self,
        db: Database,
        cost_units: CostUnits = DEFAULT_COST_UNITS,
        tuples_per_page: int = 100,
        scheduler: Optional[TaskScheduler] = None,
        morsel_rows: int = DEFAULT_MORSEL_ROWS,
        nested_loop_block_elements: Optional[int] = None,
        intermediates: Optional[IntermediateRegistry] = None,
    ) -> None:
        self.db = db
        self.cost_model = CostModel(units=cost_units, tuples_per_page=tuples_per_page)
        #: Shared morsel scheduler; ``None`` executes every kernel serially.
        self.scheduler = scheduler
        self.morsel_rows = morsel_rows
        #: Block budget of the nested-loop kernel (``None`` = kernel default);
        #: threaded through from ``OptimizerSettings.nested_loop_block_elements``.
        self.nested_loop_block_elements = nested_loop_block_elements
        #: Registry resolving ``MaterializedNode`` leaves (adaptive execution);
        #: plans without such leaves never consult it.
        self.intermediates = intermediates

    # ------------------------------------------------------------------ #
    # Node evaluation
    # ------------------------------------------------------------------ #
    def _execute_scan(
        self,
        node: ScanNode,
        result: ExecutionResult,
        required: Optional[Dict[str, Set[str]]],
    ) -> Relation:
        table = self.db.table(node.table)
        alias = node.alias
        predicates = list(node.predicates)

        if required is None:
            load = list(table.column_names)
            keep = None
        else:
            carry = required.get(alias, set())
            load = [
                name
                for name in table.column_names
                if name in carry or any(p.column == name for p in predicates)
            ]
            keep = {f"{alias}.{name}" for name in carry}

        if node.method is ScanMethod.INDEX_SCAN and node.index_column is not None:
            index_predicate = next(
                (p for p in predicates if p.column == node.index_column and p.op == "="), None
            )
        else:
            index_predicate = None

        if index_predicate is not None:
            index = self.db.hash_index(node.table, node.index_column)
            row_ids = index.lookup(index_predicate.value)
            matched = len(row_ids)
            relation = Relation.from_table(table, alias, load).take(row_ids)
            residual = [p for p in predicates if p is not index_predicate]
            relation = filter_relation(
                relation, alias, residual, self.scheduler, self.morsel_rows,
                stage="filter", keep=keep,
            )
            output_rows = relation.num_rows
            resources = self.cost_model.index_scan_resources(
                table.num_rows, matched, len(residual), output_rows
            )
        else:
            relation = Relation.from_table(table, alias, load)
            relation = filter_relation(
                relation, alias, predicates, self.scheduler, self.morsel_rows,
                stage="filter", keep=keep,
            )
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

    def _execute_join(
        self,
        node: JoinNode,
        result: ExecutionResult,
        required: Optional[Dict[str, Set[str]]],
    ) -> Relation:
        if node.left is None or node.right is None:
            raise ExecutionError("join node is missing an input")
        left_relation = self._execute_node(node.left, result, required)
        right_relation = self._execute_node(node.right, result, required)
        left_rows = left_relation.num_rows
        right_rows = right_relation.num_rows

        if node.method is JoinMethod.MERGE_JOIN:
            joined = merge_join(
                left_relation, right_relation, node.predicates,
                frozenset(node.left.relations),
            )
        elif node.method is JoinMethod.NESTED_LOOP:
            joined = nested_loop_join(
                left_relation, right_relation, node.predicates,
                frozenset(node.left.relations),
                block_elements=self.nested_loop_block_elements,
            )
        elif node.method in (JoinMethod.HASH_JOIN, JoinMethod.INDEX_NESTED_LOOP):
            # INDEX_NESTED_LOOP is lookup-based and shares the build/probe
            # kernel (its cost profile differs, its output not).  With a
            # parallel scheduler the kernel runs partition-parallel; the
            # output is bit-identical either way.
            joined = parallel_hash_join(
                left_relation, right_relation, node.predicates,
                frozenset(node.left.relations),
                scheduler=self.scheduler,
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

    def _execute_aggregate(
        self,
        node: AggregateNode,
        result: ExecutionResult,
        required: Optional[Dict[str, Set[str]]],
    ) -> Relation:
        if node.child is None:
            raise ExecutionError("aggregate node is missing its input")
        child_relation = self._execute_node(node.child, result, required)
        input_rows = child_relation.num_rows
        output = group_aggregate(
            child_relation,
            node.group_by,
            node.aggregates,
            scheduler=self.scheduler,
            morsel_rows=self.morsel_rows,
            stage="aggregate",
        )
        output_rows = output.num_rows
        resources = self.cost_model.aggregate_resources(input_rows, output_rows)
        result.node_executions.append(
            NodeExecution(
                relations=frozenset(node.relations),
                kind="aggregate",
                actual_rows=output_rows,
                estimated_rows=node.estimated_rows,
                resources=resources,
            )
        )
        return output

    def _execute_materialized(
        self, node: MaterializedNode, result: ExecutionResult
    ) -> Relation:
        """Resolve a materialized leaf from the intermediate registry.

        Reuse is free by construction: the resources that produced the
        relation were charged when its pipeline originally ran, so the node
        contributes an empty resource vector (only its cardinality, for the
        instrumentation consumers).
        """
        if self.intermediates is None:
            raise ExecutionError(
                "plan contains a MaterializedNode but the executor has no "
                "intermediate registry attached"
            )
        relation = self.intermediates.relation(node.relations)
        result.node_executions.append(
            NodeExecution(
                relations=frozenset(node.relations),
                kind="materialized",
                actual_rows=relation.num_rows,
                estimated_rows=node.estimated_rows,
                resources=ResourceVector(),
            )
        )
        return relation

    def _execute_node(
        self,
        node: PlanNode,
        result: ExecutionResult,
        required: Optional[Dict[str, Set[str]]],
    ) -> Relation:
        if isinstance(node, ScanNode):
            return self._execute_scan(node, result, required)
        if isinstance(node, JoinNode):
            return self._execute_join(node, result, required)
        if isinstance(node, MaterializedNode):
            return self._execute_materialized(node, result)
        if isinstance(node, AggregateNode):
            return self._execute_aggregate(node, result, required)
        raise ExecutionError(f"unknown plan node type {type(node).__name__}")

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def execute_fragment(
        self,
        fragment: PlanNode,
        required: Optional[Dict[str, Set[str]]] = None,
    ) -> ExecutionResult:
        """Execute one plan fragment (a pipeline) without output shaping.

        This is the adaptive executor's building block: the fragment runs
        with the usual per-node instrumentation, but its output relation is
        returned *raw* (``result.columns``, encoded columns untouched, no
        projection to the query's output), so it can feed later pipelines.
        ``required`` is the column-requirement map of the **complete** plan
        the fragment belongs to (see :func:`required_columns`) — passing the
        fragment's own map would under-project its scans.
        """
        result = ExecutionResult(columns=Relation(), num_rows=0)
        started = time.perf_counter()
        relation = self._execute_node(fragment, result, required)
        result.wall_seconds = time.perf_counter() - started
        result.columns = relation
        result.num_rows = relation.num_rows
        total = ResourceVector()
        for execution in result.node_executions:
            total = total + execution.resources
        result.actual_resources = total
        result.simulated_cost = self.cost_model.cost(total)
        return result

    def execute_plan(self, plan: PlanNode, query: Optional[Query] = None) -> ExecutionResult:
        """Execute a physical plan and return the instrumented result."""
        result = ExecutionResult(columns=Relation(), num_rows=0)
        required = required_columns(plan, query)
        started = time.perf_counter()
        relation = self._execute_node(plan, result, required)
        result.wall_seconds = time.perf_counter() - started

        # Project to the query's requested output columns if it asked for
        # specific columns and no aggregation already shaped the output.
        if query is not None and query.projections and not query.aggregates and not query.group_by:
            relation = relation.project(f"{ref.alias}.{ref.column}" for ref in query.projections)

        result.columns = relation.decoded()
        result.num_rows = relation.num_rows
        total = ResourceVector()
        for execution in result.node_executions:
            total = total + execution.resources
        result.actual_resources = total
        result.simulated_cost = self.cost_model.cost(total)
        return result

    def execute(self, query: Query, plan: Optional[PlanNode] = None) -> ExecutionResult:
        """Optimize (if needed) and execute ``query``."""
        if plan is None:
            from repro.optimizer.optimizer import Optimizer

            plan = Optimizer(self.db).optimize(query)
        return self.execute_plan(plan, query)
