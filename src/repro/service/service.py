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
   Algorithm 1 from scratch, warm-started with the fresh Δ.
3. **Admission control** — a bounded FIFO gate
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
(snapshot epochs, run, publish).  Each template's plan-cache entry is its
one home: it carries the lock that serializes the template's validation and
(re)planning along with the plan, and ``_plan_for`` charges the stage times
straight to the request's :class:`~repro.service.tracing.RequestTrace`.
The sharded :class:`~repro.service.coordinator.ShardedQueryService` is a
subclass that replaces only ``_plan_and_execute`` (and widens
``_epoch_snapshot`` and ``invalidate_table`` to its shard catalogs);
single-node serving is that pipeline with the default step.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, TypeVar, Union

from repro.clock import monotonic_s
from repro.cardinality.gamma import Gamma
from repro.cardinality.sampling_estimator import validate_plan_for_bindings
from repro.executor.executor import (
    ExecutionResult,
    Executor,
    finalize_canonical_execution,
    split_final_aggregate,
)
from repro.executor.materialization import needs_canonical_order
from repro.optimizer.optimizer import Optimizer
from repro.optimizer.settings import OptimizerSettings
from repro.plans.join_tree import rebind_plan
from repro.plans.nodes import PlanNode
from repro.relalg import Relation, TaskScheduler
from repro.reopt.algorithm import ReoptimizationSettings, Reoptimizer
from repro.service.admission import AdmissionController, BackpressureError
from repro.service.cache import PlanCacheEntry, ResultCache, ResultCacheStats, max_drift
from repro.service.templates import PreparedStatement, prepare_statement
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


@dataclass
class _Flight:
    """An in-flight execution identical requests coalesce onto: the leader
    sets ``done`` when it finishes, its result in ``execution`` (``None``
    when it failed)."""

    done: threading.Event = field(default_factory=threading.Event)
    execution: Optional[ExecutionResult] = None


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
    #: simply re-planned on its next execution).  Each entry holds a plan
    #: and its Γ expectations, so the bound caps memory in a long-lived
    #: server fed ad-hoc constant-only SQL (one template per distinct
    #: literal set).
    plan_cache_entries: int = 128
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
    #: Requests rejected because the admission queue was full (load
    #: shedding).
    shed: int = 0
    #: Requests rejected because their deadline expired while waiting for a
    #: slot or for a coalesced flight (a latency failure, not shedding).
    timed_out: int = 0


@dataclass
class ServiceResult:
    """One served execution."""

    statement: PreparedStatement
    query: Query
    execution: ExecutionResult
    #: The executed plan; ``None`` when no plan ran for this request (a
    #: result-cache hit or a coalesced wait).
    plan: Optional[PlanNode]
    #: How the plan was obtained: ``result_cache`` (no execution at all),
    #: ``coalesced`` (rode an identical in-flight execution),
    #: ``validated_reuse``, ``replan`` (drift), ``fresh`` (first binding of
    #: the template) or, from a sharded coordinator, ``scatter_partial`` /
    #: ``scatter_gather``.
    source: str
    #: Largest deviation factor the validator observed (``None`` when no
    #: validation ran for this execution).
    drift: Optional[float] = None
    #: Per-stage latency accounting of this request (queue wait, validation,
    #: planning, execution, merge) on the shared monotonic clock;
    #: ``trace.total_s`` is its service-side wall time.
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
        self._reoptimizer = Reoptimizer(
            db, optimizer=self.optimizer, settings=self.reopt_settings
        )
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
        self.result_cache = ResultCache(max_entries=self.settings.result_cache_entries)
        self.admission = AdmissionController(
            max_concurrent=self.settings.max_concurrent,
            max_queued=self.settings.max_queued,
        )
        self.stats = ServiceStats()
        self._stats_lock = threading.Lock()
        #: Template fingerprint → cached plan entry, LRU-bounded by
        #: ``settings.plan_cache_entries``.  Guarded by ``_plan_cache_guard``
        #: for structure; per-template *work* (validation, replanning) runs
        #: under the entry's own lock, so distinct templates plan
        #: concurrently.
        self._plan_cache: "OrderedDict[Tuple, PlanCacheEntry]" = OrderedDict()
        self._plan_cache_guard = threading.Lock()
        #: Singleflight: result-cache key → the in-flight leader's flight.
        #: Guarded by ``_in_flight_guard``.
        self._in_flight: Dict[Tuple, _Flight] = {}
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
        """Normalize ``statement`` into a fingerprinted template.

        Every cache keys on the template fingerprint, so two spellings of
        one statement share their plan and result lines.
        """
        return prepare_statement(statement, name=name)

    def execute(
        self,
        statement: Union[str, Query, PreparedStatement],
        params: Optional[Bindings] = None,
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
            trace = RequestTrace()
        started = monotonic_s()
        prepared = self.prepare(statement)
        trace.template = prepared.name
        bound = prepared.bind(params)
        binding = prepared.binding_key(params)
        try:
            result = self._serve_coalesced(prepared, bound, binding, trace)
        except BackpressureError as error:
            trace.outcome = "timeout" if error.kind == "timeout" else "shed"
            trace.queue_wait_s += error.waited_s
            trace.total_s = monotonic_s() - started
            with self._stats_lock:
                if trace.outcome == "timeout":
                    self.stats.timed_out += 1
                else:
                    self.stats.shed += 1
            raise
        trace.source = result.source
        trace.total_s = monotonic_s() - started
        result.trace = trace
        with self._stats_lock:
            self.stats.queries += 1
        return result

    def invalidate_table(self, table: str) -> int:
        """Bump ``table``'s epoch and sweep its result-cache lines.

        Call after mutating a table's data in place; catalog-level changes
        (``create_table(replace=True)`` / ``drop_table``) bump the epoch on
        their own and only need the sweep for memory, not correctness.
        """
        self.db.bump_table_epoch(table)
        return self.result_cache.invalidate_table(table)

    def result_cache_stats(self) -> ResultCacheStats:
        return self.result_cache.stats

    def plan_cache_size(self) -> int:
        """Templates holding a plan (a failed planning leaves a plan-less entry)."""
        with self._plan_cache_guard:
            return sum(entry.plan is not None for entry in self._plan_cache.values())

    # ------------------------------------------------------------------ #
    # Serving pipeline
    # ------------------------------------------------------------------ #
    def _cached_result(
        self, prepared: PreparedStatement, bound: Query, cached: ExecutionResult, source: str
    ) -> ServiceResult:
        # The rows came from the cache, not from executing any current plan
        # (the template's cached plan may since have been replanned for a
        # different binding), so no plan is reported.
        return ServiceResult(
            statement=prepared, query=bound, execution=cached, plan=None, source=source
        )

    def _serve_coalesced(
        self,
        prepared: PreparedStatement,
        bound: Query,
        binding: Tuple,
        trace: RequestTrace,
    ) -> ServiceResult:
        """Result cache → singleflight coalescing → admission → execution.

        The cache and coalescing layers run *before* admission: a request
        answered from the cache — or riding on an identical in-flight
        execution — consumes no execution slot at all.  Coalescing is what
        keeps a thundering herd of identical requests at one execution: the
        first becomes the leader, the rest wait on its flight and read the
        result it carries; if the leader fails — planning/execution error,
        shed by admission, anything — its ``finally`` always deregisters the
        flight and releases the followers, each of which retries from the
        top (and one becomes the next leader).  A follower is never
        stranded on a dead leader's event and never poisoned by its error.
        """
        if not self.settings.use_result_cache:
            with self.admission.admit(self.settings.admission_timeout) as queue_wait:
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
                flight = self._in_flight.get(cache_key)
                leader = flight is None
                if flight is None:
                    flight = self._in_flight[cache_key] = _Flight()
            if leader:
                # Nothing may run between registering the flight and this
                # try: the finally below is the *only* thing standing
                # between a crashed leader and stranded followers.
                try:
                    with self.admission.admit(self.settings.admission_timeout) as queue_wait:
                        trace.queue_wait_s += queue_wait
                        result = self._serve(prepared, bound, binding, trace)
                    flight.execution = result.execution
                    return result
                finally:
                    with self._in_flight_guard:
                        self._in_flight.pop(cache_key, None)
                    flight.done.set()

            # Follower: ride on the leader's in-flight execution.  The
            # admission_timeout cap applies to coalesced waiters too: a
            # leader stuck in a long queue must not hold its followers past
            # the latency bound they were configured with.
            wait_started = monotonic_s()
            released = flight.done.wait(timeout=self.settings.admission_timeout)
            waited = monotonic_s() - wait_started
            if not released:
                # waited_s travels on the error; execute() charges it to the
                # trace's queue-wait stage exactly once.
                raise BackpressureError(
                    f"request for {trace.template!r} timed out waiting for a coalesced "
                    "in-flight execution",
                    kind="timeout",
                    waited_s=waited,
                )
            trace.queue_wait_s += waited
            if flight.execution is not None:
                with self._stats_lock:
                    self.stats.coalesced += 1
                return self._cached_result(prepared, bound, flight.execution, "coalesced")
            # The leader failed: retry from the top (one follower leads).

    def _epoch_snapshot(self, prepared: PreparedStatement) -> Tuple[Tuple[str, int], ...]:
        """``(table, epoch)`` pairs stamping ``prepared``'s result-cache keys."""
        return self.db.epoch_snapshot(prepared.tables)

    def _serve(
        self,
        prepared: PreparedStatement,
        bound: Query,
        binding: Tuple,
        trace: RequestTrace,
    ) -> ServiceResult:
        """Run one admitted request and publish its result."""
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
        self, prepared: PreparedStatement, bound: Query, trace: RequestTrace
    ) -> ServiceResult:
        """Plan (through the guarded cache) and execute one admitted request.

        The one step a :class:`~repro.service.coordinator.ShardedQueryService`
        replaces; everything around it is shared.
        """
        plan, source, drift = self._plan_for(prepared, bound, trace)
        execution = self._execute_plan(plan, bound, trace=trace)
        return ServiceResult(prepared, bound, execution, plan, source, drift)

    # ------------------------------------------------------------------ #
    # Layer 2: the sampling-validated plan cache
    # ------------------------------------------------------------------ #
    def _plan_entry(self, fingerprint: Tuple) -> PlanCacheEntry:
        """``fingerprint``'s plan-cache entry, inserted empty on a miss.

        Inserting evicts the least recently used entries beyond
        ``settings.plan_cache_entries``; a thread still working under an
        evicted entry's lock simply finishes, and the template is planned
        afresh on its next execution.  With ``use_plan_cache`` off every
        request plans on a throwaway entry.
        """
        if not self.settings.use_plan_cache:
            return PlanCacheEntry()
        with self._plan_cache_guard:
            entry = self._plan_cache.get(fingerprint)
            if entry is not None:
                self._plan_cache.move_to_end(fingerprint)
                return entry
            entry = self._plan_cache[fingerprint] = PlanCacheEntry()
            while len(self._plan_cache) > max(1, self.settings.plan_cache_entries):
                self._plan_cache.popitem(last=False)
            return entry

    def _plan_for(
        self, prepared: PreparedStatement, bound: Query, trace: RequestTrace
    ) -> Tuple[PlanNode, str, Optional[float]]:
        """Return ``(plan, source, drift)`` for ``bound``.

        Validation and planning seconds are added to ``trace``.
        """
        entry = self._plan_entry(prepared.fingerprint)
        with entry.lock:
            gamma: Optional[Gamma] = None
            drift: Optional[float] = None
            if entry.plan is not None:
                with self._stats_lock:
                    self.stats.plan_cache_hits += 1
                # The paper's validator as a plan-cache guard: run the cached
                # plan, rebound to the *new* constants, over the samples and
                # compare its Δ with the Γ expectations it was chosen under.
                rebound = rebind_plan(entry.plan, bound)
                validation = validate_plan_for_bindings(self.db, bound, rebound)
                trace.validation_s += validation.elapsed_seconds
                drift = max_drift(entry.expectations, validation.cardinalities)
                if drift <= self.settings.drift_threshold:
                    with self._stats_lock:
                        self.stats.validated_reuses += 1
                    return rebound, "validated_reuse", drift
                # Drift: re-plan through Algorithm 1 from scratch, warm-started
                # with the fresh Δ.
                gamma = Gamma()
                gamma.merge(validation.cardinalities)

            planning_started = monotonic_s()
            result = self._reoptimizer.reoptimize(bound, gamma=gamma)
            trace.planning_s += monotonic_s() - planning_started
            entry.plan = result.final_plan
            entry.expectations = dict(result.gamma.items())
            with self._stats_lock:
                if gamma is None:
                    self.stats.fresh_plans += 1
                else:
                    self.stats.drift_replans += 1
            return result.final_plan, "fresh" if gamma is None else "replan", drift

    # ------------------------------------------------------------------ #
    # Plan-independent deterministic execution
    # ------------------------------------------------------------------ #
    def _make_executor(self) -> Executor:
        return Executor(self.db, cost_units=self.optimizer.settings.cost_units)

    def _execute_plan(
        self, plan: PlanNode, query: Query, trace: Optional[RequestTrace] = None
    ) -> ExecutionResult:
        """Execute ``plan`` with plan-independent output determinism.

        Order-insensitive outputs (``COUNT``/``MIN``/``MAX`` and integer
        ``SUM``/``AVG`` aggregates with sorted group keys) are a function of
        the row multiset as they stand.  Order-sensitive outputs (bare
        projections, float ``SUM``/``AVG``) have the join pipeline's rows
        ordered by the output stage's input columns first, so any two
        correct plans of the same bound query — cached, replanned, or from
        scratch — produce byte-identical results.

        When a ``trace`` is given, the join pipeline is charged to its
        ``execution_s`` stage and the output stage to ``merge_s``.
        """
        join_plan, aggregate = split_final_aggregate(plan)
        executor = self._make_executor()
        started = monotonic_s()
        fragment = executor.execute_fragment(join_plan, query)
        executed = monotonic_s()
        result = finalize_canonical_execution(
            executor, query, [fragment], aggregate,
            order_rows=needs_canonical_order(self.db, query),
        )
        if trace is not None:
            trace.execution_s += executed - started
            trace.merge_s += monotonic_s() - executed
        return result
