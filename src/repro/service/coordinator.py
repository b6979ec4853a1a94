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
    Order-sensitive outputs (bare projections, float ``SUM``/``AVG``) ship
    their join fragments back — only the output stage's input columns
    (:func:`~repro.executor.executor.live_columns`) cross the queue; the
    coordinator concatenates them in sorted shard order (encoded columns in
    code space), orders the rows by those columns and runs the final
    projection/aggregation centrally — the same
    :func:`~repro.executor.executor.finalize_canonical_execution` the
    single-node service uses, so the output bytes match by construction.

``single`` / ``fallback``
    Replicated-only queries, and queries joining partitioned tables off
    their partition columns, take the inherited single-node step over the
    source catalog (replicated tables are shared by reference with it).

Scatter work travels over the service's process pool — the only work in
the repository that does.  The shard task is a top-level picklable kernel
whose payload carries a registry token, never a catalog or relation:
fork-started workers inherit the shard catalogs by copy-on-write.  Workers
that never inherited the registration (external pre-forked pools, spawn
platforms) return a sentinel and the coordinator re-runs those shards
inline, trading speed, never correctness.

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
from typing import Dict, List, Optional, Sequence, Tuple

from repro.clock import monotonic_s
from repro.cardinality.gamma import Gamma
from repro.cost.model import CostModel
from repro.cost.units import CostUnits
from repro.executor.executor import (
    ExecutionResult,
    Executor,
    NodeExecution,
    combine_execution_accounting,
    finalize_canonical_execution,
    split_final_aggregate,
)
from repro.executor.materialization import needs_canonical_order
from repro.optimizer.settings import OptimizerSettings
from repro.plans.nodes import PlanNode
from repro.relalg import Relation, TaskScheduler, concat_relations
from repro.relalg.aggregate import merge_partials, partial_aggregate
from repro.relalg.encoding import ColumnData
from repro.reopt.algorithm import ReoptimizationSettings
from repro.service.service import (
    QueryService,
    ServiceResult,
    ServiceSettings,
    ServiceStats,
)
from repro.service.sharding import (
    ShardingSpec,
    lookup_shard,
    register_shards,
    route_query,
    shard_database,
    unregister_shards,
)
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
    #: Shard fragments re-run inline because a worker lacked the registry.
    inline_shard_reruns: int = 0


#: Scatter payload: ``(token, shard_id, plan, bound query, mode,
#: nested_loop_block_elements, cost_units)`` — descriptor-sized (a registry
#: token and plan metadata), never a catalog or columns.
_ShardPayload = Tuple[str, int, PlanNode, Query, str, Optional[int], CostUnits]

#: Scatter outcome: ``("ok", columns, num_rows, node_executions, wall)`` or
#: ``("missing", shard_id, 0, [], 0.0)`` from a worker without the registry.
_ShardOutcome = Tuple[str, Dict[str, ColumnData], int, List[NodeExecution], float]


def _execute_shard(db: Database, payload: _ShardPayload) -> _ShardOutcome:
    """Run one shard's residual plan and reduce it for transport.

    The join fragment executes with the serial executor (the shard task *is*
    the unit of parallelism).  ``partial`` mode reduces the fragment to a
    partial aggregate before it crosses the queue; ``gather`` mode ships
    the raw fragment columns for central canonical-order merging.
    """
    _, shard_id, plan, query, mode, block_elements, cost_units = payload
    executor = Executor(
        db, cost_units=cost_units, nested_loop_block_elements=block_elements
    )
    join_plan, _ = split_final_aggregate(plan)
    fragment = executor.execute_fragment(join_plan, query)
    relation = fragment.columns
    if mode == "partial":
        relation = partial_aggregate(relation, query.group_by, query.aggregates)
    return (
        "ok",
        dict(relation),
        relation.num_rows,
        list(fragment.node_executions),
        fragment.wall_seconds,
    )


def _shard_fragment_task(payload: _ShardPayload) -> _ShardOutcome:
    """Top-level scatter kernel: resolve the shard catalog, run, reduce.

    Returns the ``"missing"`` sentinel instead of raising when this worker
    never inherited the shard registration — the coordinator re-runs the
    shard inline; an exception here would fail the whole batch.
    """
    token, shard_id = payload[0], payload[1]
    db = lookup_shard(token, shard_id)
    if db is None:
        return ("missing", {}, 0, [], 0.0)
    return _execute_shard(db, payload)


class ShardedQueryService(QueryService):
    """Serve one logical database from N hash-partitioned service shards."""

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
        owns_scheduler = scheduler is None
        if scheduler is None:
            scheduler = TaskScheduler(workers=num_shards, name="sharded")
        super().__init__(db, optimizer_settings, reopt_settings, settings, scheduler)
        self._owns_scheduler = owns_scheduler
        self.num_shards = num_shards
        self.spec = spec if spec is not None else ShardingSpec.tpch()
        shard_dbs = shard_database(
            db,
            num_shards,
            self.spec,
            sampling_ratio=self.reopt_settings.sampling_ratio,
            sampling_seed=self.reopt_settings.sampling_seed,
        )
        #: Registered before the scheduler's lazily forked pool runs its
        #: first task, so fork-started workers inherit the shard catalogs.
        self._registry_token = register_shards(db.name, shard_dbs)
        #: One planner per shard — statistics, samples and the validated
        #: plan cache of its slice; they share the coordinator's scheduler
        #: rather than each owning an idle one.
        self.shards: List[QueryService] = [
            QueryService(
                shard_db,
                optimizer_settings=optimizer_settings,
                reopt_settings=reopt_settings,
                settings=self.settings,
                scheduler=self.scheduler,
            )
            for shard_db in shard_dbs
        ]
        self.stats = ShardedServiceStats()
        self._cost_model = CostModel(units=self.optimizer.settings.cost_units)

    def close(self) -> None:
        """Stop the coordinator, its shards, and the owned scheduler."""
        unregister_shards(self._registry_token)
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

    def _scatter(
        self, plans: Sequence[PlanNode], bound: Query, mode: str
    ) -> List[_ShardOutcome]:
        """Run every shard's residual plan over the process scheduler.

        Payloads go out in shard-id order and ``map_kernel`` returns in
        submission order, so the outcomes come back canonically ordered.
        Workers without the shard registry (``"missing"``) are re-run
        inline in the coordinator process.
        """
        optimizer_settings = self.optimizer.settings
        payloads: List[_ShardPayload] = [
            (
                self._registry_token,
                shard_id,
                plans[shard_id],
                bound,
                mode,
                optimizer_settings.nested_loop_block_elements,
                optimizer_settings.cost_units,
            )
            for shard_id in range(self.num_shards)
        ]
        outcomes = self.scheduler.map_kernel(_shard_fragment_task, payloads)
        for shard_id in range(self.num_shards):
            if outcomes[shard_id][0] == "missing":
                outcomes[shard_id] = _execute_shard(
                    self.shards[shard_id].db, payloads[shard_id]
                )
                with self._stats_lock:
                    self.stats.inline_shard_reruns += 1
        return outcomes

    def _merge_partial(
        self, outcomes: Sequence[_ShardOutcome], bound: Query
    ) -> ExecutionResult:
        """Merge per-shard partial aggregates (canonical shard order)."""
        parts = [
            Relation(columns, num_rows=num_rows)
            for _, columns, num_rows, _, _ in outcomes
        ]
        merged = merge_partials(parts, bound.group_by, bound.aggregates).decoded()
        node_executions = [
            execution for outcome in outcomes for execution in outcome[3]
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
        result.wall_seconds = sum(outcome[4] for outcome in outcomes)
        return result.price(self._cost_model)

    def _merge_gather(
        self,
        outcomes: Sequence[_ShardOutcome],
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
        fragments = [
            Relation(columns, num_rows=num_rows)
            for _, columns, num_rows, _, _ in outcomes
        ]
        combined = concat_relations(fragments)
        _, aggregate_node = split_final_aggregate(plans[0])
        final_execution = finalize_canonical_execution(
            self._make_executor(), bound, combined, aggregate_node
        )
        shard_results = []
        for _, _, num_rows, node_executions, wall_seconds in outcomes:
            part = ExecutionResult(
                columns=Relation(), num_rows=num_rows, node_executions=node_executions
            )
            part.wall_seconds = wall_seconds
            shard_results.append(part)
        return combine_execution_accounting(
            shard_results, final_execution, self._cost_model
        )

    def _gossip(
        self, prepared: PreparedStatement, outcomes: Sequence[_ShardOutcome]
    ) -> int:
        """Broadcast each shard's exact Γ entries to its siblings.

        Hash partitioning keeps shards statistically symmetric, so an exact
        cardinality executed on one shard is the best estimate of the same
        join set on every other.  Senders merge in ascending shard order
        (later shards win ties) and every receiver gets the combined view
        of all its siblings.
        """
        gammas: List[Gamma] = []
        for _, _, _, node_executions, _ in outcomes:
            gamma = Gamma()
            for execution in node_executions:
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
        outcomes = self._scatter(plans, bound, mode)
        merge_started = monotonic_s()
        if mode == "partial":
            execution = self._merge_partial(outcomes, bound)
        else:
            execution = self._merge_gather(outcomes, plans, bound)
        if trace is not None:
            trace.execution_s += merge_started - scatter_started
            trace.merge_s += monotonic_s() - merge_started
        gossiped = self._gossip(prepared, outcomes)
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
