"""Mid-execution adaptive re-optimization with intermediate reuse.

The paper validates cardinalities on *samples* before execution;
:class:`AdaptiveExecutor` closes the remaining loop by feeding *true*
cardinalities observed **during** execution back into Γ and re-planning the
rest of the query mid-flight — incremental re-evaluation in the spirit of
Berkholz et al.'s FO+MOD maintenance, built from pieces the engine already
has:

* the executor measures every pipeline's actual output cardinality;
* :meth:`PlanningSession.optimize` re-expands only the Γ-dirtied DP masks,
  so a mid-flight re-plan costs a fraction of the original search;
* Γ ranks *exact* (executed) entries above sampled ones, so observations
  made at run time permanently outrank the estimates that misled the
  optimizer.

Execution proceeds pipeline by pipeline (a pipeline breaker = a completed
scan or join).  Each breaker checkpoints its output into an
:class:`~repro.executor.materialization.IntermediateRegistry` keyed by
join-set fingerprint and records the true cardinality as an exact Γ entry.
When the observed cardinality deviates from the optimizer's estimate by more
than ``AdaptiveSettings.replan_threshold`` (a ratio), the residual query is
re-planned: the DP search is re-entered with every materialized intermediate
pinned as a zero-cost :class:`~repro.plans.nodes.MaterializedNode` leaf, so
the new plan may resume from already-computed intermediates instead of
restarting from scans — and execution continues under whichever residual
plan is now cheapest.

Bit-identity guarantee
----------------------
Adaptive execution returns byte-identical results whatever the threshold,
the number of re-plans, or the intermediates reused — including the
degenerate "static" mode (``replan_threshold=None``), which executes the
optimizer's original plan to completion.  A join's output row *multiset* is
independent of join order, but its row *order* is not; for order-sensitive
outputs (float ``SUM``/``AVG`` accumulation, bare projections) the final
pipeline's rows are therefore ordered by the output stage's input columns
before the output is shaped
(:func:`~repro.executor.executor.finalize_canonical_execution`), making the
result a pure function of the joined row multiset.  Order-insensitive
outputs (``COUNT``/``MIN``/``MAX``, integer ``SUM``/``AVG``, sorted group
keys) skip the sort and are additionally byte-identical to the plain
:class:`~repro.executor.executor.Executor` running the static plan.
Checkpoints carry :func:`~repro.executor.executor.live_columns` of their
join set — a function of the query alone, so an intermediate materialized
under one plan is exactly what any re-planned join order expects there.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro.cardinality.gamma import Gamma
from repro.executor.executor import (
    ExecutionResult,
    Executor,
    combine_execution_accounting,
    finalize_canonical_execution,
    split_final_aggregate,
)
from repro.executor.materialization import IntermediateRegistry
from repro.optimizer.optimizer import Optimizer, OptimizerSettings, PlanningSession
from repro.plans.join_tree import classify_transformation, plans_identical, replace_subtrees
from repro.plans.nodes import (
    AggregateNode,
    JoinNode,
    MaterializedNode,
    PlanNode,
    ScanNode,
)
from repro.relalg import DEFAULT_MORSEL_ROWS, Relation, TaskScheduler
from repro.reopt.report import ReoptimizationReport, RoundRecord
from repro.sql.ast import Query
from repro.storage.catalog import Database


@dataclass(frozen=True)
class AdaptiveSettings:
    """Policy knobs of mid-execution re-optimization."""

    #: Re-plan when ``max(est, act) / min(est, act)`` of a completed
    #: pipeline's cardinality reaches this factor; ``None`` disables
    #: re-planning entirely (static mode — the bit-identity baseline).
    replan_threshold: Optional[float] = 2.0
    #: Hard bound on optimizer re-invocations within one execution.
    max_replans: int = 10
    #: Also gate on base-relation (scan) deviations, not only joins.
    gate_scans: bool = True


@dataclass
class CheckpointRecord:
    """One completed pipeline breaker."""

    join_set: FrozenSet[str]
    #: ``"scan"`` or ``"join"`` — what kind of pipeline completed.
    kind: str
    estimated_rows: float
    actual_rows: int
    #: Deviation factor ``max(est, act) / min(est, act)`` (both floored at 1).
    deviation: float
    #: Whether this checkpoint triggered a re-planning round.
    triggered_replan: bool = False
    #: Wall-clock seconds the pipeline took.
    wall_seconds: float = 0.0


@dataclass
class AdaptiveExecutionResult:
    """Outcome of one adaptive execution."""

    query: Query
    #: Merged instrumentation: final output plus every pipeline's node
    #: executions (including the work on intermediates a re-plan abandoned —
    #: the honest total cost of adapting).
    execution: ExecutionResult
    #: The plan execution started from.
    original_plan: PlanNode
    #: The plan execution finished under: the last re-planning round that
    #: actually *switched* the residual plan (== original when every re-plan
    #: merely confirmed the incumbent, or none triggered).
    final_plan: PlanNode
    #: One round per optimizer invocation (round 1 = the original plan),
    #: with ``trigger_join_set``/``plan_switched``/``exact_gamma_entries``
    #: set on the adaptive rounds.
    report: ReoptimizationReport
    #: Γ after execution: an exact entry for every completed pipeline.
    gamma: Gamma
    checkpoints: List[CheckpointRecord] = field(default_factory=list)
    #: Optimizer re-invocations triggered by deviations.
    replans: int = 0
    #: Re-plans that actually switched to a different residual plan.
    plan_switches: int = 0
    #: Materialized intermediates (scans and joins) the re-planned trees
    #: resumed from instead of recomputing.
    intermediates_reused: int = 0
    #: Wall-clock seconds spent inside the optimizer mid-flight.
    planning_seconds: float = 0.0

    @property
    def plan_changed(self) -> bool:
        """True when execution finished under a different plan."""
        return not plans_identical(self.final_plan, self.original_plan)

    @property
    def total_seconds(self) -> float:
        """Execution wall clock plus mid-flight planning overhead."""
        return self.execution.wall_seconds + self.planning_seconds

    def actual_cardinalities(self) -> Dict[FrozenSet[str], int]:
        """True cardinality of every join set any executed pipeline touched."""
        return self.execution.actual_cardinalities()


def deviation_factor(estimated: float, actual: float) -> float:
    """How far an estimate is off, as a symmetric ratio (1.0 = spot on).

    Both sides are floored at one row so empty/sub-row estimates do not
    produce infinite factors.
    """
    est = max(float(estimated), 1.0)
    act = max(float(actual), 1.0)
    return max(est, act) / min(est, act)


def _next_pipeline(plan: PlanNode) -> Optional[PlanNode]:
    """The next executable pipeline: post-order first scan, or first join
    whose inputs are both already materialized."""
    for node in _post_order(plan):
        if isinstance(node, ScanNode):
            return node
        if isinstance(node, JoinNode):
            if isinstance(node.left, MaterializedNode) and isinstance(
                node.right, MaterializedNode
            ):
                return node
    return None


def _post_order(node: PlanNode) -> Iterator[PlanNode]:
    for child in node.children():
        yield from _post_order(child)
    yield node


class AdaptiveExecutor:
    """Execute queries pipeline-by-pipeline, re-planning on mis-estimates."""

    def __init__(
        self,
        db: Database,
        optimizer: Optional[Optimizer] = None,
        settings: Optional[AdaptiveSettings] = None,
        optimizer_settings: Optional[OptimizerSettings] = None,
        scheduler: Optional[TaskScheduler] = None,
        morsel_rows: int = DEFAULT_MORSEL_ROWS,
    ) -> None:
        self.db = db
        self.optimizer = (
            optimizer if optimizer is not None else Optimizer(db, settings=optimizer_settings)
        )
        self.settings = settings if settings is not None else AdaptiveSettings()
        self.scheduler = scheduler
        self.morsel_rows = morsel_rows

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def execute(
        self,
        query: Query,
        plan: Optional[PlanNode] = None,
        gamma: Optional[Gamma] = None,
    ) -> AdaptiveExecutionResult:
        """Adaptively execute ``query``.

        ``plan`` is the plan to start from (default: the optimizer's static
        choice under ``gamma``).  ``gamma`` may carry pre-validated sampled
        entries (e.g. from a prior Algorithm 1 run); it is mutated in place
        and gains an exact entry for every completed pipeline.
        """
        query.validate()
        gamma = gamma if gamma is not None else Gamma()
        session = self.optimizer.planning_session(query)
        registry = IntermediateRegistry()
        executor = Executor(
            self.db,
            cost_units=self.optimizer.settings.cost_units,
            scheduler=self.scheduler,
            morsel_rows=self.morsel_rows,
            nested_loop_block_elements=self.optimizer.settings.nested_loop_block_elements,
            intermediates=registry,
        )
        if plan is None:
            planning_started = time.perf_counter()
            plan = session.optimize(gamma)
            initial_planning = time.perf_counter() - planning_started
        else:
            initial_planning = 0.0

        report = ReoptimizationReport(query_name=query.name)
        report.rounds.append(
            RoundRecord(
                round_number=1,
                plan=plan,
                estimated_cost=plan.estimated_cost,
                estimated_rows=plan.estimated_rows,
                transformation=None,
                planning_seconds=initial_planning,
                dp_masks_expanded=session.last_masks_expanded,
                exact_gamma_entries=0,
            )
        )

        join_plan, aggregate_node = split_final_aggregate(plan)
        full_set = frozenset(alias for alias in query.aliases)

        result = AdaptiveExecutionResult(
            query=query,
            execution=ExecutionResult(columns=Relation(), num_rows=0),
            original_plan=plan,
            final_plan=plan,
            report=report,
            gamma=gamma,
        )
        fragments: List[ExecutionResult] = []
        threshold = self.settings.replan_threshold
        current = join_plan

        while True:
            current = replace_subtrees(current, self._reuse_nodes(registry))
            if isinstance(current, MaterializedNode):
                break
            target = _next_pipeline(current)
            if target is None:  # pragma: no cover - defensive: malformed plan
                raise RuntimeError(f"no executable pipeline in plan of {query.name!r}")

            fragment = executor.execute_fragment(target, query)
            fragments.append(fragment)
            out_set = frozenset(target.relations)
            relation = fragment.columns
            registry.store(out_set, relation, source_signature=target.signature())
            gamma.record_exact(out_set, relation.num_rows)

            checkpoint = CheckpointRecord(
                join_set=out_set,
                kind="scan" if isinstance(target, ScanNode) else "join",
                estimated_rows=target.estimated_rows,
                actual_rows=relation.num_rows,
                deviation=deviation_factor(target.estimated_rows, relation.num_rows),
                wall_seconds=fragment.wall_seconds,
            )
            result.checkpoints.append(checkpoint)

            if (
                threshold is not None
                and checkpoint.deviation >= threshold
                and result.replans < self.settings.max_replans
                and relation.num_rows > 0  # empty pipelines make the rest free
                and out_set != full_set  # nothing left to re-order
                and (self.settings.gate_scans or checkpoint.kind == "join")
            ):
                checkpoint.triggered_replan = True
                current, aggregate_node = self._replan(
                    session, gamma, registry, report, result,
                    current, aggregate_node, out_set,
                )

        # ------------------------------------------------------------------
        # Final pipeline: canonical ordering (when the output is
        # order-sensitive) and output shaping through the plain executor.
        # ------------------------------------------------------------------
        entry = registry.get(full_set)
        assert entry is not None
        final_execution = finalize_canonical_execution(
            executor, registry, query, entry.relation, aggregate_node,
            source_signature=entry.source_signature,
        )
        result.execution = combine_execution_accounting(
            fragments, final_execution, executor.cost_model
        )
        return result

    # ------------------------------------------------------------------ #
    # Mid-flight re-planning
    # ------------------------------------------------------------------ #
    @staticmethod
    def _reuse_nodes(registry: IntermediateRegistry) -> Dict[FrozenSet[str], PlanNode]:
        """Zero-cost reuse leaves for every materialized intermediate."""
        return {
            key: MaterializedNode(
                relations=key,
                estimated_rows=float(entry.actual_rows),
                estimated_cost=0.0,
            )
            for key, entry in registry.items()
        }

    def _replan(
        self,
        session: PlanningSession,
        gamma: Gamma,
        registry: IntermediateRegistry,
        report: ReoptimizationReport,
        result: AdaptiveExecutionResult,
        current: PlanNode,
        aggregate_node: Optional[AggregateNode],
        trigger: FrozenSet[str],
    ) -> Tuple[PlanNode, Optional[AggregateNode]]:
        """Re-plan the residual query; return the (possibly new) join plan."""
        reuse_nodes = self._reuse_nodes(registry)
        planning_started = time.perf_counter()
        new_plan = session.optimize(gamma, materialized=reuse_nodes)
        planning_seconds = time.perf_counter() - planning_started
        result.planning_seconds += planning_seconds
        result.replans += 1

        new_join_plan, new_aggregate = split_final_aggregate(new_plan)
        new_current = replace_subtrees(new_join_plan, reuse_nodes)
        # Collapse the incumbent with the same reuse map before comparing:
        # the pipeline that triggered this re-plan is already materialized,
        # and an optimizer answer that merely confirms the incumbent must
        # not count as a switch.
        current = replace_subtrees(current, reuse_nodes)
        switched = not plans_identical(new_current, current)
        previous_plan = report.rounds[-1].plan
        report.rounds.append(
            RoundRecord(
                round_number=len(report.rounds) + 1,
                plan=new_plan,
                estimated_cost=new_plan.estimated_cost,
                estimated_rows=new_plan.estimated_rows,
                transformation=classify_transformation(previous_plan, new_plan),
                planning_seconds=planning_seconds,
                dp_masks_expanded=session.last_masks_expanded,
                trigger_join_set=trigger,
                plan_switched=switched,
                exact_gamma_entries=len(gamma.exact_join_sets()),
            )
        )
        if not switched:
            return current, aggregate_node
        result.plan_switches += 1
        result.final_plan = new_plan
        result.intermediates_reused += sum(
            1 for node in new_current.walk() if isinstance(node, MaterializedNode)
        )
        return new_current, new_aggregate


def execute_adaptively(
    db: Database,
    query: Query,
    plan: Optional[PlanNode] = None,
    settings: Optional[AdaptiveSettings] = None,
    optimizer_settings: Optional[OptimizerSettings] = None,
    gamma: Optional[Gamma] = None,
) -> AdaptiveExecutionResult:
    """Convenience wrapper: adaptively execute one query with defaults."""
    executor = AdaptiveExecutor(db, settings=settings, optimizer_settings=optimizer_settings)
    return executor.execute(query, plan=plan, gamma=gamma)
