"""The long-lived query service.

:class:`QueryService` turns the reproduction from a batch harness into a
server: it accepts SQL with ``?`` / ``:name`` placeholders (or
:class:`~repro.sql.builder.QueryBuilder` templates), normalizes each
statement into a fingerprinted template, and serves executions through three
layers, outermost first:

1. **Result cache** — ``(template, bindings, table epochs)`` → executed
   rows.  Epoch-stamped keys make data changes self-invalidating (see
   :meth:`~repro.storage.catalog.Database.epoch_snapshot`).
2. **Sampling-validated plan cache** — one plan per template, produced by
   Algorithm 1 for the first binding.  Each later binding *validates* the
   cached plan by running the paper's sampling estimator over the new
   bindings' filtered samples (the validator repurposed as a plan-cache
   guard): if the observed Δ stays within ``drift_threshold`` of the Γ
   expectations the plan was chosen under, the plan is reused at zero
   planning cost; otherwise the template is re-planned through
   Algorithm 1, warm-started with the fresh Δ, through the template's
   incremental :class:`~repro.optimizer.optimizer.PlanningSession`.
3. **Admission control** — a bounded, client-fair gate
   (:class:`~repro.service.admission.AdmissionController`) in front of
   execution, shedding load with
   :class:`~repro.service.admission.BackpressureError` instead of queueing
   without bound.

Results are **plan-independent bit-identical**: order-sensitive outputs
(bare projections, float ``SUM``/``AVG``) are produced from the join
pipeline's rows ordered by the output stage's input columns — the same
:func:`~repro.executor.executor.finalize_canonical_execution` the sharded
coordinator uses — so a validated reuse, a drift
replan and a from-scratch run of the same bound query return byte-identical
relations even when their join orders differ.

This module owns the **one request pipeline** of the repo —
``execute`` (trace, backpressure and stat bookkeeping) →
``_serve_coalesced`` (result cache → singleflight → admission) → ``_serve``
(snapshot epochs, run, publish).  The sharded
:class:`~repro.service.coordinator.ShardedQueryService` is a subclass that
replaces only ``_plan_and_execute`` (and widens ``_epoch_snapshot`` and
``invalidate_table`` to its shard catalogs); single-node serving is that
pipeline with the default step.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, TypeVar, Union

from repro.clock import monotonic_s
from repro.cardinality.gamma import Gamma
from repro.cardinality.sampling_estimator import validate_plan_for_bindings
from repro.executor.executor import (
    ExecutionResult,
    Executor,
    combine_execution_accounting,
    finalize_canonical_execution,
    split_final_aggregate,
)
from repro.executor.materialization import needs_canonical_order
from repro.optimizer.optimizer import Optimizer, PlanningSession
from repro.optimizer.settings import OptimizerSettings
from repro.plans.join_tree import rebind_plan
from repro.plans.nodes import MaterializedNode, PlanNode
from repro.relalg import Relation, TaskScheduler
from repro.reopt.algorithm import ReoptimizationResult, ReoptimizationSettings, Reoptimizer
from repro.service.admission import AdmissionController, AdmissionStats, BackpressureError
from repro.service.cache import PlanCacheEntry, ResultCache, ResultCacheStats, max_drift
from repro.service.templates import PreparedStatement, StatementRegistry
from repro.service.tracing import RequestTrace
from repro.sql.ast import Bindings, Query
from repro.storage.catalog import Database

__all__ = [
    "QueryService",
    "ServiceResult",
    "ServiceSettings",
    "ServiceStats",
]

_ServiceT = TypeVar("_ServiceT", bound="QueryService")


@dataclass(frozen=True)
class ServiceSettings:
    """Policy knobs of the query service."""

    #: Largest deviation factor (``max(expected, observed) / min(...)``, both
    #: floored at one row) a cached plan survives: a new binding whose sampled
    #: cardinalities drift further triggers a replan.  The default tolerates
    #: the sampling noise of unchanged workloads while catching the
    #: order-of-magnitude shifts that flip join orders; ``float("inf")``
    #: never replans (the classical unguarded prepared-statement cache).
    drift_threshold: float = 4.0
    #: Reuse plans across bindings of one template at all.
    use_plan_cache: bool = True
    #: Serve repeated (template, bindings, epochs) from the result cache.
    use_result_cache: bool = True
    #: Bound of the result cache (entries).
    result_cache_entries: int = 256
    #: Bound of the per-template plan cache (LRU; an evicted template is
    #: simply re-planned on its next execution).  Each entry retains a
    #: planning session, so the bound caps memory in a long-lived server fed
    #: ad-hoc constant-only SQL (one template per distinct literal set).
    plan_cache_entries: int = 128
    #: Bound of the prepared-statement registry (LRU, re-prepared on miss).
    statement_registry_entries: int = 1024
    #: Concurrent executions admitted at once.
    max_concurrent: int = 8
    #: Callers allowed to wait for a slot before load shedding kicks in.
    max_queued: int = 64
    #: Optional cap (seconds) a caller waits for admission.
    admission_timeout: Optional[float] = None
    #: Unused: every query runs in the caller's process.  Kept only because
    #: the benchmark passes it.
    workers: int = 1


@dataclass
class ServiceStats:
    """Lifetime counters of one :class:`QueryService`."""

    queries: int = 0
    #: Executions answered entirely from the result cache.
    result_cache_hits: int = 0
    #: Executions coalesced onto an identical in-flight execution
    #: (singleflight): the waiter reused the leader's result without
    #: planning, validating or executing anything itself.
    coalesced: int = 0
    #: Executions that found a cached plan for their template.
    plan_cache_hits: int = 0
    #: ... of which the sampling validator confirmed the plan for the new
    #: bindings (reuse at zero planning cost).
    validated_reuses: int = 0
    #: ... of which the validator rejected: drift beyond threshold, replanned.
    drift_replans: int = 0
    #: Executions that planned their template from scratch (first binding).
    fresh_plans: int = 0
    #: Requests rejected with ``BackpressureError``: shed or timed out at
    #: the admission gate, or timed out waiting on a coalesced flight.
    rejected: int = 0
    #: Exact Γ entries merged in from sibling shards (sharded serving only;
    #: see :meth:`QueryService.apply_gamma_gossip`).
    gossip_entries: int = 0
    #: Wall-clock seconds spent validating cached plans over samples.
    validation_seconds: float = 0.0
    #: Wall-clock seconds spent inside Algorithm 1 (fresh plans + replans).
    planning_seconds: float = 0.0


@dataclass
class ServiceResult:
    """One served execution."""

    statement: PreparedStatement
    query: Query
    execution: ExecutionResult
    plan: PlanNode
    #: How the plan was obtained: ``result_cache`` (no execution at all),
    #: ``coalesced`` (rode an identical in-flight execution),
    #: ``validated_reuse``, ``replan`` (drift), ``fresh`` (first binding of
    #: the template) or, from a sharded coordinator, ``scatter_partial`` /
    #: ``scatter_gather``.
    source: str
    #: Largest deviation factor the validator observed (``None`` when no
    #: validation ran for this execution).
    drift: Optional[float] = None
    validation_seconds: float = 0.0
    planning_seconds: float = 0.0
    #: Total service-side latency (admission wait included).
    wall_seconds: float = 0.0
    #: Per-stage latency accounting of this request (queue wait, validation,
    #: planning, execution, merge) on the shared monotonic clock.
    trace: Optional[RequestTrace] = None

    @property
    def num_rows(self) -> int:
        return self.execution.num_rows

    @property
    def columns(self) -> Relation:
        return self.execution.columns


class QueryService:
    """Serve prepared, parameterized queries against one database."""

    def __init__(
        self,
        db: Database,
        optimizer_settings: Optional[OptimizerSettings] = None,
        reopt_settings: Optional[ReoptimizationSettings] = None,
        settings: Optional[ServiceSettings] = None,
        scheduler: Optional[TaskScheduler] = None,
    ) -> None:
        self.db = db
        self.settings = settings if settings is not None else ServiceSettings()
        self.reopt_settings = (
            reopt_settings if reopt_settings is not None else ReoptimizationSettings()
        )
        self.optimizer = Optimizer(db, settings=optimizer_settings)
        #: The in-process task runner a sharded coordinator counts its
        #: scatter on; kept on every service because the benchmark reads it.
        self.scheduler = (
            scheduler
            if scheduler is not None
            else TaskScheduler(workers=self.settings.workers, name="service")
        )
        if db.samples is None:
            db.create_samples(
                ratio=self.reopt_settings.sampling_ratio,
                seed=self.reopt_settings.sampling_seed,
            )
        self.statements = StatementRegistry(
            max_entries=self.settings.statement_registry_entries
        )
        self._samples_lock = threading.Lock()
        self.result_cache = ResultCache(max_entries=self.settings.result_cache_entries)
        self.admission = AdmissionController(
            max_concurrent=self.settings.max_concurrent,
            max_queued=self.settings.max_queued,
        )
        self.stats = ServiceStats()
        self._stats_lock = threading.Lock()
        #: Template fingerprint → cached plan entry, LRU-bounded by
        #: ``settings.plan_cache_entries``.  Guarded by ``_plan_cache_guard``
        #: for structure; per-template *work* (validation, replanning) is
        #: serialized by the `_template_locks` map instead, so distinct
        #: templates plan concurrently.
        self._plan_cache: "OrderedDict[Tuple, PlanCacheEntry]" = OrderedDict()
        self._plan_cache_guard = threading.Lock()
        self._template_locks: Dict[Tuple, threading.Lock] = {}
        self._template_locks_guard = threading.Lock()
        #: Singleflight: result-cache key → event the in-flight leader sets
        #: once the result is published.  Guarded by ``_in_flight_guard``.
        self._in_flight: Dict[Tuple, threading.Event] = {}
        self._in_flight_guard = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Stop the service (terminal): later ``execute`` calls raise."""
        self._closed = True

    def __enter__(self: _ServiceT) -> _ServiceT:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def prepare(
        self, statement: Union[str, Query, PreparedStatement], name: Optional[str] = None
    ) -> PreparedStatement:
        """Normalize and register a prepared statement (idempotent)."""
        return self.statements.register(statement, name=name)

    def execute(
        self,
        statement: Union[str, Query, PreparedStatement],
        params: Optional[Bindings] = None,
        client: str = "default",
        trace: Optional[RequestTrace] = None,
    ) -> ServiceResult:
        """Serve one execution of ``statement`` bound to ``params``.

        ``trace`` (optional) is filled with per-stage latency accounting —
        pass one in to keep it even when the request is shed; otherwise a
        fresh trace is created and attached to the returned result either
        way.

        Raises
        ------
        BackpressureError
            When admission control sheds the request (queue full/timeout).
        RuntimeError
            When the service was already closed.
        """
        if self._closed:
            raise RuntimeError(f"{type(self).__name__} is closed")
        if trace is None:
            trace = RequestTrace(client=client)
        trace.client = client
        started = monotonic_s()
        trace.started_s = started
        prepared = self.prepare(statement)
        trace.template = prepared.name
        bound = prepared.bind(params)
        binding = prepared.binding_key(params)
        try:
            result = self._serve_coalesced(prepared, bound, binding, client, trace)
        except BackpressureError as error:
            trace.outcome = error.kind if error.kind in ("shed", "timeout") else "shed"
            trace.queue_wait_s += error.waited_s
            trace.total_s = monotonic_s() - started
            with self._stats_lock:
                self.stats.rejected += 1
            raise
        result.wall_seconds = monotonic_s() - started
        trace.source = result.source
        trace.validation_s = result.validation_seconds
        trace.planning_s = result.planning_seconds
        trace.total_s = result.wall_seconds
        result.trace = trace
        with self._stats_lock:
            self.stats.queries += 1
            self.stats.validation_seconds += result.validation_seconds
            self.stats.planning_seconds += result.planning_seconds
        return result

    def invalidate_table(self, table: str) -> int:
        """Bump ``table``'s epoch and sweep its result-cache lines.

        Call after mutating a table's data in place; catalog-level changes
        (``create_table(replace=True)`` / ``drop_table``) bump the epoch on
        their own and only need the sweep for memory, not correctness.
        """
        self.db.bump_table_epoch(table)
        return self.result_cache.invalidate_table(table)

    def admission_stats(self) -> AdmissionStats:
        """Backpressure counters (admitted/shed/timed-out/queue high-water).

        Returns an independent snapshot safe to iterate while requests are
        in flight.
        """
        return self.admission.stats_snapshot()

    def result_cache_stats(self) -> ResultCacheStats:
        return self.result_cache.stats

    def plan_cache_size(self) -> int:
        with self._plan_cache_guard:
            return len(self._plan_cache)

    def apply_gamma_gossip(self, fingerprint: Tuple, gossip: Gamma) -> int:
        """Merge sibling shards' exact Γ observations into a cached template.

        Called by the sharded coordinator after any shard executes the
        template: every *exact* entry of ``gossip`` is recorded into the
        entry's gossip Γ and overwrites the matching drift-guard
        expectation, so this shard's next validation compares its Δ against
        observed truth instead of the stale sample the plan was chosen
        under — and its next replan warm-starts from exact-provenance
        entries.  Hash partitioning keeps shards statistically symmetric,
        which is what makes a sibling's executed cardinality the best
        available estimate here.  Join sets are applied in canonical sorted
        order.  Returns the number of entries applied (0 when the template
        has no cached plan on this shard).
        """
        with self._template_lock(fingerprint):
            entry = self._plan_cache_get(fingerprint)
            if entry is None:
                return 0
            applied = 0
            for join_set in sorted(gossip.exact_join_sets(), key=sorted):
                value = gossip.get(join_set)
                if value is None:
                    continue
                entry.gossip.record(join_set, value, exact=True)
                entry.expectations[join_set] = float(value)
                applied += 1
        if applied:
            with self._stats_lock:
                self.stats.gossip_entries += applied
        return applied

    # ------------------------------------------------------------------ #
    # Serving pipeline
    # ------------------------------------------------------------------ #
    def _cached_result(
        self, prepared: PreparedStatement, bound: Query, cached: ExecutionResult, source: str
    ) -> ServiceResult:
        # The rows came from the cache, not from executing any current plan
        # (the template's cached plan may since have been replanned for a
        # different binding), so the reported plan is a materialized leaf —
        # "served as-is" — rather than a plan that never produced these rows.
        plan = MaterializedNode(
            relations=frozenset(bound.aliases),
            estimated_rows=float(cached.num_rows),
            estimated_cost=0.0,
        )
        return ServiceResult(
            statement=prepared, query=bound, execution=cached, plan=plan, source=source
        )

    def _serve_coalesced(
        self,
        prepared: PreparedStatement,
        bound: Query,
        binding: Tuple,
        client: str,
        trace: RequestTrace,
    ) -> ServiceResult:
        """Result cache → singleflight coalescing → admission → execution.

        The cache and coalescing layers run *before* admission: a request
        answered from the cache — or riding on an identical in-flight
        execution — consumes no execution slot at all.  Coalescing is what
        keeps a thundering herd of identical requests at one execution: the
        first becomes the leader, the rest wait on its event and read the
        published result; if the leader fails — planning/execution error,
        shed by admission, anything — its ``finally`` always deregisters the
        flight and releases the followers, each of which retries from the
        top (and one becomes the next leader).  A follower is never
        stranded on a dead leader's event and never poisoned by its error.
        """
        if not self.settings.use_result_cache:
            with self.admission.admit(
                client, timeout=self.settings.admission_timeout
            ) as queue_wait:
                trace.queue_wait_s += queue_wait
                return self._serve(prepared, bound, binding, trace)

        while True:
            epochs = self._epoch_snapshot(prepared)
            cache_key = ResultCache.key(prepared.fingerprint, binding, epochs)
            cached = self.result_cache.get(cache_key)
            if cached is not None:
                with self._stats_lock:
                    self.stats.result_cache_hits += 1
                return self._cached_result(prepared, bound, cached, "result_cache")

            with self._in_flight_guard:
                event = self._in_flight.get(cache_key)
                leader = event is None
                if leader:
                    event = threading.Event()
                    self._in_flight[cache_key] = event
            if leader:
                # Nothing may run between registering the flight and this
                # try: the finally below is the *only* thing standing
                # between a crashed leader and stranded followers.
                try:
                    with self.admission.admit(
                        client, timeout=self.settings.admission_timeout
                    ) as queue_wait:
                        trace.queue_wait_s += queue_wait
                        return self._serve(prepared, bound, binding, trace)
                finally:
                    with self._in_flight_guard:
                        self._in_flight.pop(cache_key, None)
                    event.set()

            # Follower: ride on the leader's in-flight execution.  The
            # admission_timeout cap applies to coalesced waiters too: a
            # leader stuck in a long queue must not hold its followers past
            # the latency bound they were configured with.
            wait_started = monotonic_s()
            released = event.wait(timeout=self.settings.admission_timeout)
            waited = monotonic_s() - wait_started
            if not released:
                # waited_s travels on the error; execute() charges it to the
                # trace's queue-wait stage exactly once.
                raise BackpressureError(
                    f"client {client!r} timed out waiting for a coalesced "
                    "in-flight execution",
                    kind="timeout",
                    waited_s=waited,
                )
            trace.queue_wait_s += waited
            cached = self.result_cache.get(cache_key)
            if cached is not None:
                with self._stats_lock:
                    self.stats.coalesced += 1
                return self._cached_result(prepared, bound, cached, "coalesced")
            continue  # leader failed or epochs moved: retry from the top

    def _ensure_samples(self) -> None:
        """Recreate sample tables if a catalog change dropped them.

        ``create_table(replace=True)`` invalidates ``db.samples`` (they
        described the old rows); the validation path runs *before* any
        ``Reoptimizer`` (which recreates them lazily), so the service must
        restore samples itself or every cached template would fail with
        ``SamplingError`` after a data change.
        """
        if self.db.samples is None:
            with self._samples_lock:
                if self.db.samples is None:
                    self.db.create_samples(
                        ratio=self.reopt_settings.sampling_ratio,
                        seed=self.reopt_settings.sampling_seed,
                    )

    def _epoch_snapshot(self, prepared: PreparedStatement) -> Tuple[Tuple[str, int], ...]:
        """``(table, epoch)`` pairs stamping ``prepared``'s result-cache keys."""
        return self.db.epoch_snapshot(prepared.tables)

    def _serve(
        self,
        prepared: PreparedStatement,
        bound: Query,
        binding: Tuple,
        trace: Optional[RequestTrace] = None,
    ) -> ServiceResult:
        """Run one admitted request and publish its result."""
        self._ensure_samples()
        # Snapshot the epochs *before* executing: the result is published
        # under the data version it started from, so a concurrent epoch bump
        # can never stamp stale rows with the new version.
        epochs = self._epoch_snapshot(prepared)
        result = self._plan_and_execute(prepared, bound, trace)
        if self.settings.use_result_cache:
            self.result_cache.put(
                ResultCache.key(prepared.fingerprint, binding, epochs), result.execution
            )
        return result

    def _plan_and_execute(
        self, prepared: PreparedStatement, bound: Query, trace: Optional[RequestTrace]
    ) -> ServiceResult:
        """Plan (through the guarded cache) and execute one admitted request.

        The one step a :class:`~repro.service.coordinator.ShardedQueryService`
        replaces; everything around it is shared.
        """
        plan, source, drift, validation_seconds, planning_seconds = self._plan_for(
            prepared, bound
        )
        execution = self._execute_plan(plan, bound, trace=trace)
        return ServiceResult(
            statement=prepared,
            query=bound,
            execution=execution,
            plan=plan,
            source=source,
            drift=drift,
            validation_seconds=validation_seconds,
            planning_seconds=planning_seconds,
        )

    # ------------------------------------------------------------------ #
    # Layer 2: the sampling-validated plan cache
    # ------------------------------------------------------------------ #
    def _template_lock(self, fingerprint: Tuple) -> threading.Lock:
        with self._template_locks_guard:
            lock = self._template_locks.get(fingerprint)
            if lock is None:
                lock = threading.Lock()
                self._template_locks[fingerprint] = lock
            needs_prune = len(self._template_locks) > 2 * max(
                1, self.settings.plan_cache_entries
            )
        if needs_prune:
            # Templates whose planning *failed* never reach _plan_cache_put,
            # so eviction-based cleanup misses their locks; sweep locks with
            # no cache entry here.  The guards are taken sequentially (never
            # nested) to keep a single lock order with _plan_cache_put.
            with self._plan_cache_guard:
                cached = set(self._plan_cache)
            with self._template_locks_guard:
                stale = [
                    fp
                    for fp, stale_lock in self._template_locks.items()
                    if fp not in cached and fp != fingerprint and not stale_lock.locked()
                ]
                for fp in stale:
                    del self._template_locks[fp]
        return lock

    def _plan_cache_get(self, fingerprint: Tuple) -> Optional[PlanCacheEntry]:
        with self._plan_cache_guard:
            entry = self._plan_cache.get(fingerprint)
            if entry is not None:
                self._plan_cache.move_to_end(fingerprint)
            return entry

    def _plan_cache_put(self, fingerprint: Tuple, entry: PlanCacheEntry) -> None:
        evicted = []
        with self._plan_cache_guard:
            self._plan_cache[fingerprint] = entry
            self._plan_cache.move_to_end(fingerprint)
            while len(self._plan_cache) > max(1, self.settings.plan_cache_entries):
                evicted_fp, _ = self._plan_cache.popitem(last=False)
                evicted.append(evicted_fp)
        if evicted:
            # Drop the evicted templates' locks too, or the lock map would
            # grow unbounded with the (evicted) fingerprints.  A thread
            # currently holding such a lock simply finishes; the template is
            # re-planned under a fresh lock on its next execution.
            with self._template_locks_guard:
                for evicted_fp in evicted:
                    self._template_locks.pop(evicted_fp, None)

    def _plan_for(
        self, prepared: PreparedStatement, bound: Query
    ) -> Tuple[PlanNode, str, Optional[float], float, float]:
        """Return ``(plan, source, drift, validation_seconds, planning_seconds)``."""
        if not self.settings.use_plan_cache:
            planning_started = monotonic_s()
            result = self._run_algorithm1(bound, session=None, gamma=None)
            planning_seconds = monotonic_s() - planning_started
            with self._stats_lock:
                self.stats.fresh_plans += 1
            return result.final_plan, "fresh", None, 0.0, planning_seconds

        with self._template_lock(prepared.fingerprint):
            entry = self._plan_cache_get(prepared.fingerprint)
            if entry is None:
                planning_started = monotonic_s()
                session = self.optimizer.planning_session(bound)
                result = self._run_algorithm1(bound, session=session, gamma=None)
                planning_seconds = monotonic_s() - planning_started
                self._plan_cache_put(
                    prepared.fingerprint,
                    PlanCacheEntry(
                        plan=result.final_plan,
                        bound_query=bound,
                        expectations=dict(result.gamma.items()),
                        session=session,
                    ),
                )
                with self._stats_lock:
                    self.stats.fresh_plans += 1
                return result.final_plan, "fresh", None, 0.0, planning_seconds

            with self._stats_lock:
                self.stats.plan_cache_hits += 1

            # The paper's validator as a plan-cache guard: sample the cached
            # plan's join sets under the *new* bindings and compare with the
            # Γ expectations the plan was chosen under.  The plan itself is
            # *rebound* first — its scans must filter on the new constants
            # (the shape is cached, the literals are per-execution).
            rebound = rebind_plan(entry.plan, bound)
            _, validation = validate_plan_for_bindings(
                self.db,
                bound,
                None,
                rebound,
                validate_base_relations=self.reopt_settings.validate_base_relations,
            )
            entry.validations += 1
            drift = max_drift(entry.expectations, validation.cardinalities)
            if drift <= self.settings.drift_threshold:
                entry.reuses += 1
                with self._stats_lock:
                    self.stats.validated_reuses += 1
                return rebound, "validated_reuse", drift, validation.elapsed_seconds, 0.0

            # Drift: the cached plan's cardinality assumptions no longer hold
            # for these bindings.  Re-plan through Algorithm 1, warm-started
            # with the Δ just sampled (those join sets are already validated),
            # through the template's rebound planning session.
            entry.rejections += 1
            planning_started = monotonic_s()
            gamma = Gamma()
            # Sibling-shard exact observations first, the fresh Δ second:
            # exact provenance survives the sampled merge (a sampled value
            # never downgrades an exact one), and join sets only the gossip
            # covers still seed the replan.
            gamma.merge(entry.gossip)
            gamma.merge(validation.cardinalities)
            session = (
                entry.session.rebind(bound) if entry.session is not None else None
            )
            result = self._run_algorithm1(bound, session=session, gamma=gamma)
            planning_seconds = monotonic_s() - planning_started
            entry.plan = result.final_plan
            entry.bound_query = bound
            entry.expectations = dict(result.gamma.items())
            with self._stats_lock:
                self.stats.drift_replans += 1
            return (
                result.final_plan,
                "replan",
                drift,
                validation.elapsed_seconds,
                planning_seconds,
            )

    def _run_algorithm1(
        self,
        bound: Query,
        session: Optional[PlanningSession],
        gamma: Optional[Gamma],
    ) -> ReoptimizationResult:
        reoptimizer = Reoptimizer(
            self.db, optimizer=self.optimizer, settings=self.reopt_settings
        )
        return reoptimizer.reoptimize(bound, gamma=gamma, session=session)

    # ------------------------------------------------------------------ #
    # Plan-independent deterministic execution
    # ------------------------------------------------------------------ #
    def _make_executor(self) -> Executor:
        return Executor(
            self.db,
            cost_units=self.optimizer.settings.cost_units,
            nested_loop_block_elements=self.optimizer.settings.nested_loop_block_elements,
        )

    def _execute_plan(
        self, plan: PlanNode, query: Query, trace: Optional[RequestTrace] = None
    ) -> ExecutionResult:
        """Execute ``plan`` with plan-independent output determinism.

        Order-insensitive outputs (``COUNT``/``MIN``/``MAX`` and integer
        ``SUM``/``AVG`` aggregates with sorted group keys) run straight
        through the executor.  Order-sensitive outputs (bare projections,
        float ``SUM``/``AVG``) pass the join pipeline's rows through a sort
        by the output stage's input columns before the output (or
        aggregation) stage, so any two correct plans of the same bound query
        — cached, replanned, or from scratch — produce byte-identical
        results.

        When a ``trace`` is given, the join pipeline is charged to its
        ``execution_s`` stage and the canonical sort + final stage to
        ``merge_s``.
        """
        if not needs_canonical_order(self.db, query):
            started = monotonic_s()
            result = self._make_executor().execute_plan(plan, query)
            if trace is not None:
                trace.execution_s += monotonic_s() - started
            return result

        join_plan, aggregate_node = split_final_aggregate(plan)
        executor = self._make_executor()
        started = monotonic_s()
        fragment = executor.execute_fragment(join_plan, query)
        executed = monotonic_s()
        final_execution = finalize_canonical_execution(
            executor, query, fragment.columns, aggregate_node
        )
        if trace is not None:
            trace.execution_s += executed - started
            trace.merge_s += monotonic_s() - executed
        return combine_execution_accounting(
            [fragment], final_execution, executor.cost_model
        )
