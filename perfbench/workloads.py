"""The five workloads: seeded request lists and set-up of the system under test.

Every workload offers the runner the same surface:

* ``setup(timings, data_scale)`` — generate the data, ANALYZE, sample, shard and
  construct the service, adding each phase's seconds to ``timings``; returns
  a live :class:`Instance`.
* ``build_requests(seed, count, instance)`` — the measured request list, the
  warm-up list (drawn from a second seed stream) and, for ``serve_hot``, the
  request positions before which ``orders`` is invalidated.  A pure function
  of the seed (the instance only lends its catalogs to the query generators);
  the program only ever sees the generated requests.
* ``Instance.call(request)`` — the one public call a client makes.
* ``Instance.reference(request)`` — the same request through the reference
  path the measured output is checked against.

The data is fixed (``DATA_SEED``): it is the state of the system, not an
input of a run.  The request lists are stratified — every seed covers the
same binding ranges evenly and shuffles the order — so that two seeds load
the system alike and the metrics of one run say something about the next.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass, field
from unittest import mock
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro
from repro import Executor
from repro.bench.loadgen import zipf_weights
from repro.executor.executor import ExecutionResult
from repro.relalg import Relation, TaskScheduler
from repro.reopt.algorithm import ReoptimizationSettings
from repro.service import QueryService, ServiceSettings, ShardedQueryService, coordinator
from repro.sql.ast import Query
from repro.sql.builder import QueryBuilder
from repro.storage.catalog import Database
from repro.storage.table import Column, Table, TableSchema
from repro.workloads.ott import generate_ott_database, make_ott_workload
from repro.workloads.tpcds import generate_tpcds_database, make_tpcds_workload
from repro.workloads.tpch import (
    CONTAINERS,
    MARKET_SEGMENTS,
    ORDER_PRIORITIES,
    SHIP_MODES,
    generate_tpch_database,
)
from repro.workloads.tpch_queries import TPCH_QUERY_NUMBERS, make_tpch_query

DATA_SEED = 20160626
SAMPLING_RATIO = 0.05
TPCH_SCALE_FACTOR = 0.05

#: ``run_seconds`` of BENCHMARK.json: the lists are sized so that the passes
#: of one run (see ``measure.ROUNDS``) last about that long together at the
#: commit that defined the benchmark.
RUN_SECONDS = 15

HOST_CORES = len(os.sched_getaffinity(0))
#: Pools inside the program are sized ``min(2, nproc)``.
POOL_WORKERS = min(2, HOST_CORES)


@dataclass(frozen=True)
class Request:
    """One client request: a statement and the values bound to it."""

    template: str
    statement: Query
    params: Tuple = ()
    #: ``reopt_batch`` only: which of its three databases the query reads.
    database: str = ""

    @property
    def key(self) -> Tuple:
        return (self.template, self.params)


@dataclass
class RequestList:
    measured: List[Request]
    warmup: List[Request]
    #: Request position → table invalidated just before that request.
    invalidate_before: Dict[int, str] = field(default_factory=dict)


@dataclass
class Served:
    """What one call returned, reduced to what the benchmark reads."""

    output: Relation
    #: Sum of ``actual_rows`` over the executed plan's nodes (0 when no plan
    #: ran, i.e. a result-cache hit).
    work_rows: int
    source: str
    #: The program's own result object (``ServiceResult`` or a
    #: ``(ReoptimizationResult, ExecutionResult)`` pair), for the counters.
    result: object


def plan_work_rows(execution: ExecutionResult) -> int:
    return sum(node.actual_rows for node in execution.node_executions)


class timed:
    """``with timed(timings, "phase"):`` adds the block's seconds to a dict."""

    def __init__(self, timings: Dict[str, float], phase: str) -> None:
        self.timings = timings
        self.phase = phase

    def __enter__(self) -> None:
        self.started = time.perf_counter()

    def __exit__(self, *exc_info: object) -> None:
        elapsed = time.perf_counter() - self.started
        self.timings[self.phase] = self.timings.get(self.phase, 0.0) + elapsed


# --------------------------------------------------------------------------- #
# Seeded, stratified bindings
# --------------------------------------------------------------------------- #
def _rng(seed: int, stream: str) -> np.random.Generator:
    """An independent generator per (seed, purpose)."""
    return np.random.default_rng([seed, *stream.encode()])


def stratified_ints(rng: np.random.Generator, low: int, high: int, count: int) -> List[int]:
    """``count`` ascending integers, one drawn from each equal slice of [low, high]."""
    width = (high - low + 1) / count
    values = low + (np.arange(count) + rng.random(count)) * width
    return [min(high, int(value)) for value in values]


def grid_bindings(
    rng: np.random.Generator,
    count: int,
    categories: Sequence[Sequence[object]],
    low: int,
    high: int,
) -> List[Tuple]:
    """``count`` distinct ``(*category values, number)`` bindings.

    The number is stratified over ``[low, high]`` and the category
    combinations cycle through a seeded permutation, so every seed spreads
    its bindings over the whole space the same way.
    """
    combos = list(itertools.product(*categories))
    order = rng.permutation(len(combos))
    numbers = stratified_ints(rng, low, high, count)
    bindings = [
        (*combos[order[index % len(combos)]], numbers[index]) for index in range(count)
    ]
    if len(set(bindings)) != count:
        raise ValueError(f"cannot draw {count} distinct bindings from this space")
    return bindings


def _shuffled(rng: np.random.Generator, items: Sequence) -> List:
    return [items[index] for index in rng.permutation(len(items))]


# --------------------------------------------------------------------------- #
# Templates (the shapes of the repo's service benches, defined here)
# --------------------------------------------------------------------------- #
def _revenue_template() -> Query:
    return (
        QueryBuilder("revenue")
        .table("customer", "c").table("orders", "o").table("lineitem", "l")
        .filter_param("c", "c_mktsegment", "=")
        .filter_param("o", "o_orderdate", "<")
        .join("c", "c_custkey", "o", "o_custkey")
        .join("o", "o_orderkey", "l", "l_orderkey")
        .group_by("o", "o_orderpriority")
        .aggregate("sum", "l", "l_extendedprice", "revenue")
        .aggregate("count", output_name="orders")
        .build()
    )


def _shipping_template() -> Query:
    return (
        QueryBuilder("shipping")
        .table("orders", "o").table("lineitem", "l")
        .filter_param("o", "o_orderpriority", "=")
        .filter_param("l", "l_shipmode", "=")
        .filter_param("l", "l_quantity", "<=")
        .join("o", "o_orderkey", "l", "l_orderkey")
        .aggregate("sum", "l", "l_extendedprice", "value")
        .aggregate("count", output_name="lines")
        .build()
    )


def _parts_template() -> Query:
    return (
        QueryBuilder("parts")
        .table("part", "p").table("lineitem", "l").table("supplier", "s")
        .filter_param("p", "p_container", "=")
        .filter_param("l", "l_quantity", "<=")
        .join("p", "p_partkey", "l", "l_partkey")
        .join("s", "s_suppkey", "l", "l_suppkey")
        .aggregate("count", output_name="shipped")
        .build()
    )


#: (template, category domains, numeric low, numeric high)
_TPCH_TEMPLATES = (
    (_revenue_template(), (MARKET_SEGMENTS,), 300, 2400),
    (_shipping_template(), (ORDER_PRIORITIES, SHIP_MODES), 1, 50),
    (_parts_template(), (CONTAINERS,), 1, 50),
)

STAR_FACT_ROWS = 400_000
STAR_DIM_ROWS = 150_000
STAR_GROUPS = 5_000


def _star_template() -> Query:
    builder = QueryBuilder("star").table("fact", "f")
    for index in range(4):
        builder.table(f"dim{index}", f"d{index}")
        builder.join("f", f"k{index}", f"d{index}", "k")
    return (
        builder
        .filter_param("f", "r", "<")
        .filter_param("d0", "payload", "<")
        .group_by("f", "g")
        .aggregate("sum", "f", "v", "total")
        .aggregate("count", output_name="n")
        .build()
    )


def _tpch_requests_by_template(rng: np.random.Generator, count: int) -> List[List[Request]]:
    """``count`` requests with pairwise distinct bindings, a third per
    template, each template's list in ascending order of its number."""
    by_template = []
    for index, (template, categories, low, high) in enumerate(_TPCH_TEMPLATES):
        share = count // 3 + (1 if index < count % 3 else 0)
        by_template.append([
            Request(template.name, template, binding)
            for binding in grid_bindings(rng, share, categories, low, high)
        ])
    return by_template


def _fresh_tpch_requests(rng: np.random.Generator, count: int) -> List[Request]:
    by_template = _tpch_requests_by_template(rng, count)
    return _shuffled(rng, [request for requests in by_template for request in requests])


def _spread_order(count: int, rotation: int) -> List[int]:
    """``range(count)`` in bit-reversed order, rotated: every prefix of the
    result is spread evenly over the whole range."""
    bits = max(1, (count - 1).bit_length())
    reversed_bits = (int(format(i, f"0{bits}b")[::-1], 2) for i in range(1 << bits))
    return [(index + rotation) % count for index in reversed_bits if index < count]


def _hot_pool(rng: np.random.Generator, size: int) -> List[Request]:
    """The ``serve_hot`` pool in popularity order.

    Ranks cycle through the templates, and within a template follow
    ``_spread_order`` over its numbers: the few pairs that carry most of the
    zipf weight (and most of the refill misses) then cover every template
    and the whole parameter range under every seed, instead of being
    whatever a shuffle put first.
    """
    by_template = [
        [requests[index] for index in _spread_order(len(requests), int(rng.integers(len(requests))))]
        for requests in _tpch_requests_by_template(rng, size)
    ]
    return [
        requests[rank]
        for rank in range(len(by_template[0]))
        for requests in by_template
        if rank < len(requests)
    ]


def _fresh_star_requests(rng: np.random.Generator, count: int) -> List[Request]:
    """Both range parameters stay in a band where every request does alike work."""
    template = _star_template()
    fact_bounds = _shuffled(rng, stratified_ints(rng, 500, 700, count))
    dim_bounds = _shuffled(rng, stratified_ints(rng, 600, 900, count))
    bindings = list(zip(fact_bounds, dim_bounds))
    if len(set(bindings)) != count:
        raise ValueError(f"cannot draw {count} distinct star bindings")
    return [Request(template.name, template, binding) for binding in bindings]


def _zipf_counts(keys: int, total: int, s: float) -> List[int]:
    """How often each of ``keys`` ranks occurs in ``total`` zipf(s) draws.

    Expected counts rounded by largest remainder, so the multiset is the
    same for every seed and only the order is random.
    """
    expected = zipf_weights(keys, s) * total
    counts = np.floor(expected).astype(int)
    remainder = total - int(counts.sum())
    for index in np.argsort(-(expected - counts), kind="stable")[:remainder]:
        counts[index] += 1
    return counts.tolist()


def _spaced_stream(
    rng: np.random.Generator, items: Sequence, counts: Sequence[int]
) -> List:
    """``items[i]`` repeated ``counts[i]`` times, each item's occurrences
    evenly spaced over the stream from a seeded phase.

    A plain shuffle clumps: the number of distinct pairs between two
    invalidations, and with it the miss count and ``plan_work_rows``, then
    varies by +-5 % from seed to seed.  Spaced, the frequencies are the same
    zipf counts and every stretch of the stream sees the same mix.
    """
    placed = sorted(
        (float(rng.random() + occurrence) / times, index)
        for index, times in enumerate(counts)
        for occurrence in range(times)
    )
    return [items[index] for _, index in placed]


# --------------------------------------------------------------------------- #
# Instances: a live system under test
# --------------------------------------------------------------------------- #
class Instance:
    """A set-up system: what ``Workload.setup`` returns."""

    def call(self, request: Request) -> Served:
        """The one public call a client makes for ``request``."""
        raise NotImplementedError

    def reference(self, request: Request) -> Relation:
        """The output ``call`` must reproduce, by the reference path."""
        raise NotImplementedError

    def invalidate(self, table: str) -> None:
        raise NotImplementedError

    def counters(self) -> Dict[str, float]:
        """Lifetime counters the program keeps, flattened (see ``layers``)."""
        return {}

    def close(self) -> None:
        """Stop what runs; idempotent, and ``reference`` still works after."""


class ServiceInstance(Instance):
    """A ``QueryService`` or ``ShardedQueryService`` over one database."""

    def __init__(self, db: Database, service: object, scheduler: Optional[TaskScheduler]) -> None:
        self.db = db
        self.service: Optional[object] = service
        #: The pool handed to a sharded service (which then does not own it).
        self._scheduler = scheduler
        #: Created on first use of ``reference``.
        self._reference_service: Optional[QueryService] = None

    def call(self, request: Request) -> Served:
        result = self.service.execute(request.statement, request.params)
        executed = result.source != "result_cache"
        return Served(
            output=result.execution.columns,
            work_rows=plan_work_rows(result.execution) if executed else 0,
            source=result.source,
            result=result,
        )

    def reference(self, request: Request) -> Relation:
        """Single node, one worker, no plan cache, no result cache."""
        if self._reference_service is None:
            self._reference_service = QueryService(
                self.db,
                reopt_settings=_REOPT_SETTINGS,
                settings=ServiceSettings(
                    workers=1, use_plan_cache=False, use_result_cache=False
                ),
            )
        return self._reference_service.execute(
            request.statement, request.params
        ).execution.columns

    def invalidate(self, table: str) -> None:
        self.service.invalidate_table(table)

    def counters(self) -> Dict[str, float]:
        service = self.service
        sharded = isinstance(service, ShardedQueryService)
        nodes = service.shards if sharded else [service]
        cache = service.result_cache_stats()
        scheduler = service.scheduler.stats()
        counters = {
            "source.result_cache": service.stats.result_cache_hits,
            "source.validated_reuse": sum(node.stats.validated_reuses for node in nodes),
            "source.replan": sum(node.stats.drift_replans for node in nodes),
            "source.fresh": sum(node.stats.fresh_plans for node in nodes),
            "cache.hits": cache.hits,
            "cache.misses": cache.misses,
            "cache.evictions": cache.evictions,
            "cache.invalidations": cache.invalidations,
            "scheduler.busy_s": scheduler.busy_seconds,
            "scheduler.tasks_process": scheduler.tasks_process,
            "scheduler.tasks_inline": scheduler.tasks_inline,
        }
        if sharded:
            for name in (
                "partial_merges", "gather_merges", "fallback_queries",
                "inline_shard_reruns", "gossip_entries",
            ):
                counters[f"coordinator.{name}"] = getattr(service.stats, name)
        return counters

    def close(self) -> None:
        for stoppable in (self.service, self._scheduler, self._reference_service):
            if stoppable is not None:
                stoppable.close()
        self.service = self._scheduler = self._reference_service = None


class ReoptInstance(Instance):
    """``reopt_batch`` has no service: three databases and the library API."""

    def __init__(self, databases: Dict[str, Database]) -> None:
        self.databases = databases

    def call(self, request: Request) -> Served:
        db = self.databases[request.database]
        # Looked up on the package at call time, so a traced pass sees its wrapper.
        result = repro.reoptimize(db, request.statement, settings=_REOPT_SETTINGS)
        execution = Executor(db).execute(request.statement, result.final_plan)
        return Served(
            output=execution.columns,
            work_rows=plan_work_rows(execution),
            source="reoptimized" if result.plan_changed else "original",
            result=(result, execution),
        )

    def reference(self, request: Request) -> Relation:
        """The optimizer's original, un-reoptimized plan."""
        return Executor(self.databases[request.database]).execute(request.statement).columns

_REOPT_SETTINGS = ReoptimizationSettings(
    sampling_ratio=SAMPLING_RATIO, sampling_seed=DATA_SEED
)


# --------------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Requests in the list at ``--seconds RUN_SECONDS --scale 1``.
    requests: int
    #: One request in ``check_every`` (seeded) also runs through the reference.
    check_every: int
    #: Worker processes and shards the program runs with on this host.
    workers: int = 1
    num_shards: int = 1

    @property
    def degraded(self) -> bool:
        """Built for a two-core pool but this host has one core."""
        return self.name in ("serve_sharded", "star_parallel") and HOST_CORES < 2

    def request_count(self, seconds: float, scale: float) -> int:
        return max(2, round(self.requests * seconds / RUN_SECONDS * scale))

    def build_requests(self, seed: int, count: int, instance: "Instance") -> RequestList:
        raise NotImplementedError

    def setup(self, timings: Dict[str, float], data_scale: float = 1.0) -> Instance:
        """Build the system; ``data_scale`` < 1 shrinks the tables (smoke tests)."""
        raise NotImplementedError


def _tpch_database(timings: Dict[str, float], zipf_z: float, data_scale: float) -> Database:
    with timed(timings, "storage.generate_s"):
        db = generate_tpch_database(
            scale_factor=TPCH_SCALE_FACTOR * data_scale, zipf_z=zipf_z, seed=DATA_SEED,
            analyze=False, create_samples=False,
        )
    with timed(timings, "stats.analyze_s"):
        db.analyze()
    with timed(timings, "storage.create_samples_s"):
        db.create_samples(ratio=SAMPLING_RATIO, seed=DATA_SEED)
    return db


@dataclass(frozen=True)
class TpchServeWorkload(Workload):
    """``serve_adhoc``, ``serve_hot`` and ``serve_sharded`` share one database."""

    #: ``serve_hot`` only: size of the (template, binding) pool.
    pool_size: int = 0

    def build_requests(self, seed: int, count: int, instance: "Instance") -> RequestList:
        rng = _rng(seed, "requests")
        if not self.pool_size:
            measured = _fresh_tpch_requests(rng, count)
            return RequestList(measured, self._warmup(seed, measured))
        # serve_hot: zipf(1.0) over a pool that fits the result cache, the
        # most popular pair chosen by the seed, orders invalidated every
        # 125-133 requests of 400 (three times whatever the seed).  The
        # first invalidation comes after half a gap, inside the quarter of
        # the list that the traced pass serves.
        pool = _hot_pool(rng, self.pool_size)
        measured = _spaced_stream(rng, pool, _zipf_counts(len(pool), count, 1.0))
        invalidate_before: Dict[int, str] = {}
        position = 0
        while True:
            gap = int(rng.integers(count * 5 // 16, count // 3 + 1))
            position += gap if invalidate_before else max(1, gap // 2)
            if position >= count:
                break
            invalidate_before[position] = "orders"
        return RequestList(measured, self._warmup(seed, pool), invalidate_before)

    @staticmethod
    def _warmup(seed: int, measured: Sequence[Request]) -> List[Request]:
        """A few requests per template that no measured request repeats, so
        the warm-up plans every template and leaves nothing to hit."""
        taken = {request.key for request in measured}
        candidates = _fresh_tpch_requests(_rng(seed, "warmup"), 12)
        return [request for request in candidates if request.key not in taken]

    def setup(self, timings: Dict[str, float], data_scale: float = 1.0) -> Instance:
        db = _tpch_database(timings, 0.0, data_scale)
        if self.num_shards == 1:
            with timed(timings, "service.construct_s"):
                service = QueryService(
                    db, reopt_settings=_REOPT_SETTINGS, settings=ServiceSettings(workers=1)
                )
            return ServiceInstance(db, service, None)
        # The coordinator shards inside its constructor: time that call from
        # here and charge the rest of the constructor to construct_s.
        original = coordinator.shard_database

        def timed_shard_database(*args: object, **kwargs: object) -> List[Database]:
            with timed(timings, "service.shard_database_s"):
                return original(*args, **kwargs)

        with mock.patch.object(coordinator, "shard_database", timed_shard_database), \
                timed(timings, "service.construct_s"):
            scheduler = TaskScheduler(workers=self.workers, name="sharded")
            service = ShardedQueryService(
                db,
                num_shards=self.num_shards,
                reopt_settings=_REOPT_SETTINGS,
                settings=ServiceSettings(workers=1),
                scheduler=scheduler,
            )
        timings["service.construct_s"] -= timings["service.shard_database_s"]
        return ServiceInstance(db, service, scheduler)


@dataclass(frozen=True)
class StarWorkload(Workload):
    """``star_parallel``: one 4-join template on the morsel/process runtime."""

    def build_requests(self, seed: int, count: int, instance: "Instance") -> RequestList:
        return RequestList(
            _fresh_star_requests(_rng(seed, "requests"), count),
            _fresh_star_requests(_rng(seed, "warmup"), 2),
        )

    def setup(self, timings: Dict[str, float], data_scale: float = 1.0) -> Instance:
        fact_rows = round(STAR_FACT_ROWS * data_scale)
        dim_rows = round(STAR_DIM_ROWS * data_scale)
        with timed(timings, "storage.generate_s"):
            rng = np.random.default_rng(DATA_SEED)
            db = Database("star")
            fact_columns = {
                f"k{index}": rng.integers(0, dim_rows, size=fact_rows) for index in range(4)
            }
            fact_columns["v"] = rng.uniform(0.0, 100.0, size=fact_rows)
            fact_columns["g"] = rng.integers(0, STAR_GROUPS, size=fact_rows)
            fact_columns["r"] = rng.integers(0, 1000, size=fact_rows)
            _create_table(db, "fact", fact_columns)
            for index in range(4):
                _create_table(db, f"dim{index}", {
                    "k": rng.permutation(dim_rows),
                    "payload": rng.integers(0, 1000, size=dim_rows),
                })
        with timed(timings, "stats.analyze_s"):
            db.analyze()
        with timed(timings, "storage.create_samples_s"):
            db.create_samples(ratio=SAMPLING_RATIO, seed=DATA_SEED)
        with timed(timings, "service.construct_s"):
            service = QueryService(
                db,
                reopt_settings=_REOPT_SETTINGS,
                settings=ServiceSettings(workers=self.workers, use_result_cache=False),
            )
        return ServiceInstance(db, service, None)


def _create_table(db: Database, name: str, columns: Dict[str, np.ndarray]) -> None:
    schema = TableSchema(name, tuple(
        Column(column, "float" if values.dtype.kind == "f" else "int")
        for column, values in columns.items()
    ))
    db.create_table(Table(schema, columns))


@dataclass(frozen=True)
class ReoptBatchWorkload(Workload):
    """``reopt_batch``: Algorithm 1 then execution, query by query."""

    #: TPC-H instances per template, OTT and TPC-DS queries of the full-size
    #: list; a list of another size keeps these proportions.
    tpch_instances: int = 5
    ott_queries: int = 40
    tpcds_queries: int = 30

    def build_requests(self, seed: int, count: int, instance: "ReoptInstance") -> RequestList:
        full = (
            self.tpch_instances * len(TPCH_QUERY_NUMBERS)
            + self.ott_queries + self.tpcds_queries
        )
        measured = self._queries(instance.databases, seed, "requests", count / full)
        # One instance of every template the list uses.
        warmup = self._queries(
            instance.databases, seed, "warmup", min(1.0 / self.tpch_instances, count / full)
        )
        return RequestList(_shuffled(_rng(seed, "order"), measured), warmup)

    def _queries(
        self, databases: Dict[str, Database], seed: int, stream: str, factor: float
    ) -> List[Request]:
        """The three query sets at ``factor`` of their full size.

        The TPC-H instances are the same for every seed (constants drawn
        from the instance number); the seed draws the OTT queries, the
        TPC-DS constants and the order.  Instances differ too much to be
        drawn afresh: one skewed-TPC-H q9 instance in thirty plans
        catastrophically (4 s instead of 0.1 s), and one in seven needs
        33 MB more than any other query, so a list of seeded instances
        would measure whether it caught one of those, not the program.
        """
        rng = _rng(seed, stream)
        requests: List[Request] = []
        per_template = self.tpch_instances * factor
        # A list too short for every template takes the first few of them.
        templates = max(1, round(min(1.0, per_template) * len(TPCH_QUERY_NUMBERS)))
        for number in TPCH_QUERY_NUMBERS[:templates]:
            for instance in range(max(1, round(per_template))):
                query = make_tpch_query(databases["tpch"], number, seed=instance * 32 + number)
                query.name = f"q{number}_i{instance}"
                requests.append(Request(f"tpch.q{number}", query, (instance,), "tpch"))
        query_seed = int(rng.integers(1 << 30))
        ott = make_ott_workload(
            databases["ott"], num_tables=5,
            num_queries=max(1, round(self.ott_queries * factor)), seed=query_seed,
        )
        requests.extend(
            Request("ott", query, (index,), "ott") for index, query in enumerate(ott)
        )
        tpcds = make_tpcds_workload(databases["tpcds"], seed=query_seed % 10_000)
        keep = max(1, round(self.tpcds_queries * min(1.0, factor)))
        requests.extend(
            Request(f"tpcds.{query.name}", query, (), "tpcds") for query in tpcds[:keep]
        )
        return requests

    def setup(self, timings: Dict[str, float], data_scale: float = 1.0) -> "ReoptInstance":
        databases = {"tpch": _tpch_database(timings, 1.0, data_scale)}
        with timed(timings, "storage.generate_s"):
            databases["ott"] = generate_ott_database(
                num_tables=6, rows_per_table=2000, seed=DATA_SEED,
                analyze=False, create_samples=False,
            )
            databases["tpcds"] = generate_tpcds_database(
                seed=DATA_SEED, analyze=False, create_samples=False
            )
        for name in ("ott", "tpcds"):
            with timed(timings, "stats.analyze_s"):
                databases[name].analyze()
            with timed(timings, "storage.create_samples_s"):
                databases[name].create_samples(ratio=SAMPLING_RATIO, seed=DATA_SEED)
        return ReoptInstance(databases)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        ReoptBatchWorkload(
            "reopt_batch",
            "the paper itself: reoptimize() then execute, over skewed TPC-H, OTT and "
            "TPC-DS; planning and sampling validation are half the time, no serving layer runs",
            requests=175, check_every=1,
        ),
        TpchServeWorkload(
            "serve_adhoc",
            "single-node QueryService, every binding fresh: each request pays validation "
            "of the cached plan, execution and canonical merge; the result cache never hits",
            requests=140, check_every=10,
        ),
        TpchServeWorkload(
            "serve_hot",
            "zipf over 64 pairs that fit the result cache, with epoch invalidations: "
            "p50 is the hit path, the tail is the refill misses",
            requests=400, check_every=1, pool_size=64,
        ),
        TpchServeWorkload(
            "serve_sharded",
            "2-shard scatter-gather over the same data and fresh bindings: process "
            "scheduler, partial and gather merges, gossip; bypasses nothing single-node uses",
            requests=120, check_every=10,
            workers=POOL_WORKERS, num_shards=2,
        ),
        StarWorkload(
            "star_parallel",
            "400k-row fact x four 150k-row dimensions on the morsel/process runtime: "
            "joins, aggregation and canonical sort dominate; the serving layers do little",
            requests=6, check_every=5, workers=POOL_WORKERS,
        ),
    )
}
