"""The sharded scatter-gather query service.

:class:`ShardedQueryService` *is* a
:class:`~repro.service.service.QueryService` over the unsharded source
catalog: statement preparation, result cache, singleflight, admission gate,
trace and backpressure bookkeeping are the inherited ones.  It replaces one
step — plan and execute one admitted request — routing each bound query
across ``N`` in-process shards.  A shard is a ``QueryService`` over a
hash-partitioned catalog slice (:mod:`repro.service.sharding`) used for its
ANALYZE statistics, sample tables and sampling-validated plan cache only;
shard results merge **bit-identically** to what one single-node service over
the unsharded catalog returns.  Both scatter modes finish through
:func:`~repro.executor.executor.finalize_canonical_execution`, the output
stage every execution path ends with, over the shards' results in canonical
sorted-shard order:

``scatter`` + *partial merge*
    Aggregate queries whose aggregates compose exactly across shards
    (only ``COUNT``/``MIN``/``MAX``: a sum of correctly rounded shard sums
    would round twice) run on every shard,
    each shard reducing its fragment to partial states with
    :func:`~repro.relalg.aggregate.partial_aggregate`; the output stage
    merges the states with :func:`~repro.relalg.aggregate.merge_partials`,
    one ``group_aggregate`` over them.

``scatter`` + *gather merge*
    Other outputs keep each shard's raw join fragment, which carries only
    the output stage's input columns
    (:func:`~repro.executor.executor.live_columns`); the output stage
    concatenates them (encoded columns in code space), orders the rows by
    those columns for a bare projection and runs the final
    projection/aggregation, exactly as for a single-node request: a
    ``SUM``/``AVG`` is correctly rounded over the gathered rows in any order.

``single`` / ``fallback``
    Replicated-only queries, and queries joining partitioned tables off
    their partition columns, take the inherited single-node step over the
    source catalog (replicated tables are shared by reference with it).

The shards run one after another in the calling thread; concurrent
requests scatter concurrently on their own threads.

Every loop over shards in this module runs in canonical sorted shard-id
order — merge determinism depends on it (repro-lint RPL011).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.executor.executor import (
    ExecutionResult,
    finalize_canonical_execution,
    split_final_aggregate,
)
from repro.executor.materialization import needs_canonical_order
from repro.plans.nodes import PlanNode
from repro.relalg import TaskScheduler
from repro.relalg.aggregate import partial_aggregate, partial_merge_exact
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
    the single/fallback step — scatter planning is on each shard's ``stats``.
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
    #: Always 0: shards plan from their own samples and share no Γ.  Kept
    #: only because the benchmark reads it.
    gossip_entries: int = 0


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
        reopt_settings: Optional[ReoptimizationSettings] = None,
        settings: Optional[ServiceSettings] = None,
        scheduler: Optional[TaskScheduler] = None,
    ) -> None:
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        super().__init__(db, reopt_settings, settings, scheduler)
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
            QueryService(shard_db, reopt_settings=reopt_settings, settings=self.settings)
            for shard_db in shard_dbs
        ]
        self.stats = ShardedServiceStats()

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
        self, prepared: PreparedStatement, bound: Query, trace: RequestTrace
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

    def _execute_shard(
        self, shard_id: int, plan: PlanNode, bound: Query, partial: bool
    ) -> ExecutionResult:
        """Run one shard's residual join pipeline.

        With ``partial`` the fragment is reduced to its partial-aggregate
        states; otherwise its raw columns go to the central output stage.
        """
        join_plan, _ = split_final_aggregate(plan)
        executor = self.shards[shard_id]._make_executor()
        fragment = executor.execute_fragment(join_plan, bound)
        if partial:
            fragment.columns = partial_aggregate(
                fragment.columns, bound.group_by, bound.aggregates
            )
            fragment.num_rows = fragment.columns.num_rows
        return fragment

    def _scatter(
        self, plans: Sequence[PlanNode], bound: Query, partial: bool
    ) -> List[ExecutionResult]:
        """Run every shard's residual plan, in canonical shard order.

        Submitted through the scheduler only so that its counters (and the
        benchmark's ``relalg.scheduler`` span) see the scatter.
        """
        return self.scheduler.map_kernel(
            lambda shard_id: self._execute_shard(shard_id, plans[shard_id], bound, partial),
            range(self.num_shards),
        )

    def _serve_scatter(
        self,
        prepared: PreparedStatement,
        bound: Query,
        trace: RequestTrace,
    ) -> ServiceResult:
        """Plan per shard, scatter, merge bit-identically.

        Every shard's validation and planning seconds add into ``trace``.
        """
        plans: List[PlanNode] = []
        worst_drift: Optional[float] = None
        for shard in self.shards:  # canonical shard order
            plan, _, drift = shard._plan_for(prepared, bound, trace)
            plans.append(plan)
            if drift is not None:
                worst_drift = drift if worst_drift is None else max(worst_drift, drift)
        # Shards send partial states when every aggregate composes exactly;
        # otherwise raw fragments, ordered centrally for a bare projection.
        order_rows = needs_canonical_order(bound)
        partial = bool(bound.aggregates) and partial_merge_exact(bound.aggregates)
        scatter_started = time.perf_counter()
        fragments = self._scatter(plans, bound, partial)
        merge_started = time.perf_counter()
        _, aggregate = split_final_aggregate(plans[0])
        execution = finalize_canonical_execution(
            self._make_executor(), bound, fragments, aggregate,
            order_rows=order_rows, partial_states=partial,
        )
        trace.execution_s += merge_started - scatter_started
        trace.merge_s += time.perf_counter() - merge_started
        with self._stats_lock:
            if partial:
                self.stats.partial_merges += 1
            else:
                self.stats.gather_merges += 1
        return ServiceResult(
            statement=prepared,
            query=bound,
            execution=execution,
            plan=plans[0],
            source="scatter_partial" if partial else "scatter_gather",
            drift=worst_drift,
        )
