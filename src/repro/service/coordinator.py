"""The sharded scatter-gather query service.

:class:`ShardedQueryService` *is* a
:class:`~repro.service.service.QueryService` over the unsharded source
catalog: statement registry, result cache, singleflight, admission gate,
trace and backpressure bookkeeping are the inherited ones.  It replaces one
step — plan and execute one admitted request — routing each bound query
across ``N`` in-process shards.  A shard is a ``QueryService`` over a
hash-partitioned catalog slice (:mod:`repro.service.sharding`) used for its
ANALYZE statistics, sample tables and sampling-validated plan cache only;
shard results merge **bit-identically** to what one single-node service over
the unsharded catalog returns:

``scatter`` + *partial merge*
    Aggregate queries whose aggregates compose exactly across shards
    (``COUNT``/``MIN``/``MAX`` always; ``SUM``/``AVG`` over integer-typed
    columns, with ``AVG`` decomposed into sum+count) run on every shard,
    each shard reducing its fragment to a partial with
    :func:`~repro.relalg.aggregate.partial_aggregate`; the coordinator
    merges partials in canonical sorted-shard order with
    :func:`~repro.relalg.aggregate.merge_partials`.

``scatter`` + *gather merge*
    Order-sensitive outputs (bare projections, float ``SUM``/``AVG``) keep
    each shard's raw join fragment, which carries only the output stage's
    input columns (:func:`~repro.executor.executor.live_columns`); the
    coordinator concatenates them in sorted shard order (encoded columns in
    code space), orders the rows by those columns and runs the final
    projection/aggregation centrally — the same
    :func:`~repro.executor.executor.finalize_canonical_execution` the
    single-node service uses, so the output bytes match by construction.

``single`` / ``fallback``
    Replicated-only queries, and queries joining partitioned tables off
    their partition columns, take the inherited single-node step over the
    source catalog (replicated tables are shared by reference with it).

The shards run one after another in the calling thread; concurrent
requests scatter concurrently on their own threads.

After every scatter the coordinator runs **exact-Γ gossip**: each shard's
executed fragment yields exact join-set cardinalities
(:meth:`~repro.executor.executor.ExecutionResult.actual_cardinalities`),
and the coordinator broadcasts every shard's exact entries to its
*siblings'* plan caches (:meth:`QueryService.apply_gamma_gossip`), so a
mis-estimate observed on one shard corrects the drift guard and the next
replan's warm-start Γ on all of them before they replan.

Every loop over shards in this module runs in canonical sorted shard-id
order — merge determinism depends on it (repro-lint RPL011).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.clock import monotonic_s
from repro.cardinality.gamma import Gamma
from repro.cost.model import CostModel
from repro.executor.executor import (
    ExecutionResult,
    NodeExecution,
    combine_execution_accounting,
    finalize_canonical_execution,
    split_final_aggregate,
)
from repro.executor.materialization import needs_canonical_order
from repro.optimizer.settings import OptimizerSettings
from repro.plans.nodes import PlanNode
from repro.relalg import TaskScheduler, concat_relations
from repro.relalg.aggregate import merge_partials, partial_aggregate
from repro.reopt.algorithm import ReoptimizationSettings
from repro.service.service import (
    QueryService,
    ServiceResult,
    ServiceSettings,
    ServiceStats,
)
from repro.service.sharding import ShardingSpec, route_query, shard_database
from repro.service.templates import PreparedStatement
from repro.service.tracing import RequestTrace
from repro.sql.ast import Query
from repro.storage.catalog import Database

__all__ = ["ShardedQueryService", "ShardedServiceStats"]


@dataclass
class ShardedServiceStats(ServiceStats):
    """:class:`ServiceStats` plus the coordinator-only counters.

    An *executed* request bumps exactly one of the four route counters (a
    cache hit or coalesced wait none).  The inherited planning counters cover
    the single/fallback step — scatter planning is on each shard's ``stats``
    — and ``gossip_entries`` counts exact Γ entries delivered to shards.
    """

    #: Scattered executions merged through exact partial aggregates.
    partial_merges: int = 0
    #: Scattered executions merged through canonical-order gather.
    gather_merges: int = 0
    #: Replicated-only executions (single-node step over the source catalog).
    single_shard_queries: int = 0
    #: Off-partition-key executions (single-node step over the source catalog).
    fallback_queries: int = 0
    #: Always 0: shards run in this process and never need a rerun.  Kept
    #: only because the benchmark reads it.
    inline_shard_reruns: int = 0


class ShardedQueryService(QueryService):
    """Serve one logical database from N hash-partitioned service shards.

    ``scheduler`` only counts the scatter; it stays because the benchmark
    passes one.
    """

    stats: ShardedServiceStats

    def __init__(
        self,
        db: Database,
        num_shards: int = 4,
        spec: Optional[ShardingSpec] = None,
        optimizer_settings: Optional[OptimizerSettings] = None,
        reopt_settings: Optional[ReoptimizationSettings] = None,
        settings: Optional[ServiceSettings] = None,
        scheduler: Optional[TaskScheduler] = None,
    ) -> None:
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        super().__init__(db, optimizer_settings, reopt_settings, settings, scheduler)
        self.num_shards = num_shards
        self.spec = spec if spec is not None else ShardingSpec.tpch()
        shard_dbs = shard_database(
            db,
            num_shards,
            self.spec,
            sampling_ratio=self.reopt_settings.sampling_ratio,
            sampling_seed=self.reopt_settings.sampling_seed,
        )
        #: One planner per shard — statistics, samples and the validated
        #: plan cache of its slice.
        self.shards: List[QueryService] = [
            QueryService(
                shard_db,
                optimizer_settings=optimizer_settings,
                reopt_settings=reopt_settings,
                settings=self.settings,
            )
            for shard_db in shard_dbs
        ]
        self.stats = ShardedServiceStats()
        self._cost_model = CostModel(units=self.optimizer.settings.cost_units)

    def close(self) -> None:
        """Stop the coordinator and its shards."""
        for shard in self.shards:  # construction order == sorted shard ids
            shard.close()
        super().close()

    def invalidate_table(self, table: str) -> int:
        """Bump ``table``'s epoch in the source and every shard catalog, then
        sweep its lines from the merged result cache."""
        for shard in self.shards:  # canonical shard order
            shard.invalidate_table(table)
        return super().invalidate_table(table)

    # ------------------------------------------------------------------ #
    # The sharded serving step
    # ------------------------------------------------------------------ #
    def _epoch_snapshot(self, prepared: PreparedStatement) -> Tuple[Tuple[str, int], ...]:
        """Source epochs, then every shard's in canonical shard order — one
        flat tuple of ``(table, epoch)`` pairs, so the inherited
        ``ResultCache.invalidate_table`` sweep sees every catalog."""
        snapshot = self.db.epoch_snapshot(prepared.tables)
        for shard in self.shards:  # canonical shard order
            snapshot += shard.db.epoch_snapshot(prepared.tables)
        return snapshot

    def _plan_and_execute(
        self, prepared: PreparedStatement, bound: Query, trace: Optional[RequestTrace]
    ) -> ServiceResult:
        """Route one admitted request: scatter it, or run it single-node."""
        mode = route_query(bound, self.spec).mode
        if mode == "scatter":
            return self._serve_scatter(prepared, bound, trace)
        with self._stats_lock:
            if mode == "single":
                self.stats.single_shard_queries += 1
            else:
                self.stats.fallback_queries += 1
        return super()._plan_and_execute(prepared, bound, trace)

    def _merge_mode(self, bound: Query) -> str:
        """``partial`` when every aggregate composes exactly, else ``gather``."""
        if bound.aggregates and not needs_canonical_order(self.db, bound):
            return "partial"
        return "gather"

    def _execute_shard(
        self, shard_id: int, plan: PlanNode, bound: Query, mode: str
    ) -> ExecutionResult:
        """Run one shard's residual join pipeline.

        ``partial`` mode reduces the fragment to a partial aggregate;
        ``gather`` mode keeps the raw fragment columns for the central
        canonical-order merge.
        """
        join_plan, _ = split_final_aggregate(plan)
        executor = self.shards[shard_id]._make_executor()
        fragment = executor.execute_fragment(join_plan, bound)
        if mode == "partial":
            fragment.columns = partial_aggregate(
                fragment.columns, bound.group_by, bound.aggregates
            )
            fragment.num_rows = fragment.columns.num_rows
        return fragment

    def _scatter(
        self, plans: Sequence[PlanNode], bound: Query, mode: str
    ) -> List[ExecutionResult]:
        """Run every shard's residual plan, in canonical shard order.

        Submitted through the scheduler only so that its counters (and the
        benchmark's ``relalg.scheduler`` span) see the scatter.
        """
        return self.scheduler.map_kernel(
            lambda shard_id: self._execute_shard(shard_id, plans[shard_id], bound, mode),
            range(self.num_shards),
        )

    def _merge_partial(
        self, fragments: Sequence[ExecutionResult], bound: Query
    ) -> ExecutionResult:
        """Merge per-shard partial aggregates (canonical shard order)."""
        parts = [fragment.columns for fragment in fragments]
        merged = merge_partials(parts, bound.group_by, bound.aggregates).decoded()
        node_executions = [
            execution for fragment in fragments for execution in fragment.node_executions
        ]
        input_rows = sum(part.num_rows for part in parts)
        node_executions.append(
            NodeExecution(
                relations=frozenset(bound.aliases),
                kind="aggregate",
                actual_rows=merged.num_rows,
                estimated_rows=float(merged.num_rows),
                resources=self._cost_model.aggregate_resources(
                    input_rows, merged.num_rows
                ),
            )
        )
        result = ExecutionResult(
            columns=merged,
            num_rows=merged.num_rows,
            node_executions=node_executions,
        )
        result.wall_seconds = sum(fragment.wall_seconds for fragment in fragments)
        return result.price(self._cost_model)

    def _merge_gather(
        self,
        fragments: Sequence[ExecutionResult],
        plans: Sequence[PlanNode],
        bound: Query,
    ) -> ExecutionResult:
        """Concatenate shard fragments and finish centrally.

        Fragments concatenate in canonical shard order, then the final
        stage orders the rows by the output stage's input columns — a pure
        function of the row multiset, which the disjoint shard union
        preserves — so it sees byte-for-byte the rows a single-node
        canonical execution sees.
        """
        combined = concat_relations([fragment.columns for fragment in fragments])
        _, aggregate_node = split_final_aggregate(plans[0])
        final_execution = finalize_canonical_execution(
            self._make_executor(), bound, combined, aggregate_node
        )
        return combine_execution_accounting(
            fragments, final_execution, self._cost_model
        )

    def _gossip(
        self, prepared: PreparedStatement, fragments: Sequence[ExecutionResult]
    ) -> int:
        """Broadcast each shard's exact Γ entries to its siblings.

        Hash partitioning keeps shards statistically symmetric, so an exact
        cardinality executed on one shard is the best estimate of the same
        join set on every other.  Senders merge in ascending shard order
        (later shards win ties) and every receiver gets the combined view
        of all its siblings.
        """
        gammas: List[Gamma] = []
        for fragment in fragments:
            gamma = Gamma()
            for execution in fragment.node_executions:
                if execution.kind != "aggregate":
                    gamma.record_exact(execution.relations, float(execution.actual_rows))
            gammas.append(gamma)
        applied = 0
        for receiver in range(self.num_shards):
            combined = Gamma()
            for sender in range(self.num_shards):
                if sender != receiver:
                    combined.merge(gammas[sender])
            if len(combined):
                applied += self.shards[receiver].apply_gamma_gossip(
                    prepared.fingerprint, combined
                )
        return applied

    def _serve_scatter(
        self,
        prepared: PreparedStatement,
        bound: Query,
        trace: Optional[RequestTrace] = None,
    ) -> ServiceResult:
        """Plan per shard, scatter, merge bit-identically, gossip Γ."""
        plans: List[PlanNode] = []
        worst_drift: Optional[float] = None
        validation_seconds = 0.0
        planning_seconds = 0.0
        for shard in self.shards:  # canonical shard order
            plan, _, drift, shard_validation, shard_planning = shard._plan_for(
                prepared, bound
            )
            plans.append(plan)
            validation_seconds += shard_validation
            planning_seconds += shard_planning
            if drift is not None:
                worst_drift = drift if worst_drift is None else max(worst_drift, drift)
        mode = self._merge_mode(bound)
        scatter_started = monotonic_s()
        fragments = self._scatter(plans, bound, mode)
        merge_started = monotonic_s()
        if mode == "partial":
            execution = self._merge_partial(fragments, bound)
        else:
            execution = self._merge_gather(fragments, plans, bound)
        if trace is not None:
            trace.execution_s += merge_started - scatter_started
            trace.merge_s += monotonic_s() - merge_started
        gossiped = self._gossip(prepared, fragments)
        with self._stats_lock:
            self.stats.gossip_entries += gossiped
            if mode == "partial":
                self.stats.partial_merges += 1
            else:
                self.stats.gather_merges += 1
        return ServiceResult(
            statement=prepared,
            query=bound,
            execution=execution,
            plan=plans[0],
            source=f"scatter_{mode}",
            drift=worst_drift,
            validation_seconds=validation_seconds,
            planning_seconds=planning_seconds,
        )
