"""The sharded scatter-gather coordinator.

Bit-identity against the single-node service on every route and under
concurrent scatters, deterministic hash partitioning and co-partitioning,
routing decisions, a failing shard, the inherited result cache and admission
gate on the sharded routes, and each shard's own sampled drift guard.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.cardinality.gamma import Gamma
from repro.cardinality.sampling_estimator import validate_plan_for_bindings
from repro.errors import ExecutionError
from repro.executor.executor import Executor
from repro.plans.join_tree import rebind_plan
from repro.relalg import TaskScheduler
from repro.reopt.algorithm import Reoptimizer
from repro.service import cache as cache_module
from repro.service import (
    BackpressureError,
    QueryService,
    RequestTrace,
    ServiceSettings,
    ShardedQueryService,
    ShardingSpec,
    hash_partition,
    route_query,
    shard_database,
)
from repro.workloads.tpch import generate_tpch_database

SQL_PARTIAL = (
    "SELECT o.o_orderpriority, COUNT(*) AS cnt, MAX(l.l_quantity) AS top_qty, "
    "MIN(o.o_totalprice) AS floor_price "
    "FROM orders o, lineitem l "
    "WHERE o.o_orderkey = l.l_orderkey AND l.l_quantity < ? "
    "GROUP BY o.o_orderpriority"
)
#: Integer SUM/AVG gather raw rows: shard sums would round twice past 2**53.
SQL_INT_SUM = (
    "SELECT o.o_orderpriority, COUNT(*) AS cnt, SUM(l.l_quantity) AS qty, "
    "AVG(l.l_quantity) AS avg_qty, MIN(o.o_totalprice) AS floor_price "
    "FROM orders o, lineitem l "
    "WHERE o.o_orderkey = l.l_orderkey AND l.l_quantity < ? "
    "GROUP BY o.o_orderpriority"
)
SQL_GATHER = (
    "SELECT o.o_orderpriority, SUM(l.l_extendedprice) AS revenue, COUNT(*) AS cnt "
    "FROM customer c, orders o, lineitem l "
    "WHERE c.c_custkey = o.o_custkey AND o.o_orderkey = l.l_orderkey "
    "AND l.l_quantity < ? GROUP BY o.o_orderpriority"
)
SQL_PROJECTION = (
    "SELECT o.o_orderpriority, l.l_quantity FROM orders o, lineitem l "
    "WHERE o.o_orderkey = l.l_orderkey AND l.l_quantity < ?"
)
SQL_REPLICATED = (
    "SELECT p.p_type, COUNT(*) AS cnt FROM part p WHERE p.p_size < ? "
    "GROUP BY p.p_type"
)
SQL_OFF_KEY = (
    "SELECT COUNT(*) AS cnt FROM orders o, lineitem l "
    "WHERE o.o_custkey = l.l_suppkey AND l.l_quantity < ?"
)


@pytest.fixture(scope="module")
def db():
    return generate_tpch_database(scale_factor=0.01, seed=17, sampling_ratio=0.3)


@pytest.fixture(scope="module")
def single(db):
    with QueryService(db) as service:
        yield service


@pytest.fixture(scope="module")
def sharded(db):
    with ShardedQueryService(db, num_shards=4) as service:
        yield service


def assert_bit_identical(expected, actual) -> None:
    assert list(expected.columns) == list(actual.columns)
    assert expected.num_rows == actual.num_rows
    for name in expected.columns:
        left = np.asarray(expected.columns[name])
        right = np.asarray(actual.columns[name])
        assert left.dtype == right.dtype, name
        if left.dtype.kind == "f":
            assert np.array_equal(left.view(np.int64), right.view(np.int64)), name
        else:
            assert np.array_equal(left, right), name


class TestHashPartition:
    def test_deterministic_across_calls(self, db):
        column = db.table("orders").data_column("o_orderkey")
        first = hash_partition(column, 4)
        second = hash_partition(column, 4)
        assert np.array_equal(first, second)

    def test_spreads_sequential_keys(self, db):
        column = db.table("orders").data_column("o_orderkey")
        shards = hash_partition(column, 4)
        counts = np.bincount(shards, minlength=4)
        assert (counts > 0).all(), "a shard got no rows from a uniform keyspace"
        assert counts.max() < 2 * counts.min(), "mixer left sequential-key runs"

    def test_string_columns_partition_by_value(self, db):
        column = db.table("orders").data_column("o_orderpriority")
        shards = hash_partition(column, 4)
        decoded = db.table("orders").column("o_orderpriority")
        by_value = {}
        for value, shard in zip(decoded, shards):
            by_value.setdefault(value, set()).add(int(shard))
        assert all(len(s) == 1 for s in by_value.values())

    def test_float_partition_column_rejected(self, db):
        with pytest.raises(ValueError, match="int or str"):
            hash_partition(db.table("orders").data_column("o_totalprice"), 4)


class TestShardDatabase:
    def test_co_partitioning_holds(self, db):
        shard_dbs = shard_database(
            db, 4, ShardingSpec.tpch(), sampling_ratio=0.3, sampling_seed=17
        )
        total = sum(s.table("lineitem").num_rows for s in shard_dbs)
        assert total == db.table("lineitem").num_rows
        for shard_db in shard_dbs:
            orderkeys = set(shard_db.table("orders").column("o_orderkey").tolist())
            line_orderkeys = set(
                shard_db.table("lineitem").column("l_orderkey").tolist()
            )
            assert line_orderkeys <= orderkeys, "join matches would cross shards"

    def test_replicated_tables_share_the_object(self, db):
        shard_dbs = shard_database(
            db, 3, ShardingSpec.tpch(), sampling_ratio=0.3, sampling_seed=17
        )
        for shard_db in shard_dbs:
            assert shard_db.table("customer") is db.table("customer")

    def test_each_shard_has_statistics_and_samples(self, db):
        shard_dbs = shard_database(
            db, 2, ShardingSpec.tpch(), sampling_ratio=0.3, sampling_seed=17
        )
        for shard_db in shard_dbs:
            assert shard_db.samples is not None
            assert "lineitem" in shard_db.statistics

    def test_unknown_partition_column_rejected(self, db):
        with pytest.raises(Exception):
            shard_database(
                db,
                2,
                ShardingSpec(partitioned={"orders": "nope"}),
                sampling_ratio=0.3,
                sampling_seed=17,
            )


class TestRouting:
    def test_partition_key_join_scatters(self, sharded):
        bound = sharded.prepare(SQL_PARTIAL).bind([30])
        assert route_query(bound, sharded.spec).mode == "scatter"

    def test_replicated_only_routes_single(self, sharded):
        bound = sharded.prepare(SQL_REPLICATED).bind([20])
        assert route_query(bound, sharded.spec).mode == "single"

    def test_off_key_join_falls_back(self, sharded):
        bound = sharded.prepare(SQL_OFF_KEY).bind([30])
        assert route_query(bound, sharded.spec).mode == "fallback"

    def test_single_partitioned_table_scatters(self, sharded):
        bound = sharded.prepare(
            "SELECT COUNT(*) AS cnt FROM lineitem l WHERE l.l_quantity < ?"
        ).bind([10])
        assert route_query(bound, sharded.spec).mode == "scatter"


class TestBitIdentity:
    @pytest.mark.parametrize(
        "sql,params",
        [
            (SQL_PARTIAL, [30]),
            (SQL_PARTIAL, [12]),
            (SQL_INT_SUM, [30]),
            (SQL_GATHER, [30]),
            (SQL_PROJECTION, [4]),
            (SQL_REPLICATED, [20]),
            (SQL_OFF_KEY, [25]),
        ],
    )
    def test_sharded_matches_single_node(self, single, sharded, sql, params):
        expected = single.execute(sql, params).execution
        actual = sharded.execute(sql, params).execution
        assert_bit_identical(expected, actual)

    def test_sources_reflect_the_route(self, sharded):
        assert sharded.execute(SQL_PARTIAL, [29]).source == "scatter_partial"
        assert sharded.execute(SQL_GATHER, [29]).source == "scatter_gather"
        assert sharded.execute(SQL_INT_SUM, [29]).source == "scatter_gather"
        stats = sharded.stats
        assert stats.partial_merges >= 1
        assert stats.gather_merges >= 1


class TestServingLayers:
    def test_repeat_hits_the_merged_result_cache(self, sharded):
        first = sharded.execute(SQL_PARTIAL, [27])
        again = sharded.execute(SQL_PARTIAL, [27])
        assert again.source == "result_cache"
        assert_bit_identical(first.execution, again.execution)

    def test_replicated_route_is_the_coordinators_single_node_step(self, db):
        with ShardedQueryService(db, num_shards=2) as service:
            first = service.execute(SQL_REPLICATED, [20])
            again = service.execute(SQL_REPLICATED, [20])
            assert first.source == "fresh"
            assert again.source == "result_cache"
            assert_bit_identical(first.execution, again.execution)
            stats = service.stats
            # Route counters tally executions; the repeat is a cache hit.
            assert (stats.single_shard_queries, stats.result_cache_hits) == (1, 1)
            assert (stats.queries, stats.fresh_plans) == (2, 1)
            assert all(shard.stats.fresh_plans == 0 for shard in service.shards)
            assert all(shard.stats.queries == 0 for shard in service.shards)

    def test_shed_scatter_request_is_backpressure(self, db, admission_bounds):
        """Regression: the coordinator's forked ``execute`` caught a name it
        never imported, so a shed scatter request surfaced as ``NameError``."""
        admission_bounds(1, 4)
        settings = ServiceSettings(admission_timeout=0.05)
        with ShardedQueryService(db, num_shards=2, settings=settings) as service:
            service.admission.acquire()  # occupy the only slot
            trace = RequestTrace()
            with pytest.raises(BackpressureError) as excinfo:
                service.execute(SQL_PARTIAL, [30], trace=trace)
            service.admission.release()
            assert excinfo.value.kind == "timeout"
            assert trace.outcome == "timeout"
            assert trace.queue_wait_s == excinfo.value.waited_s >= 0.05
            assert (service.stats.shed, service.stats.timed_out) == (0, 1)

        admission_bounds(1, 0)
        with ShardedQueryService(db, num_shards=2) as service:
            service.admission.acquire()
            trace = RequestTrace()
            with pytest.raises(BackpressureError):
                service.execute(SQL_PARTIAL, [30], trace=trace)
            service.admission.release()
            assert trace.outcome == "shed"
            assert (service.stats.shed, service.stats.timed_out) == (1, 0)
            assert service.execute(SQL_PARTIAL, [30]).source == "scatter_partial"

    def test_scatter_execution_error_is_not_a_rejection(self, db, single, monkeypatch):
        """Shard 1 raises mid-scatter while a second caller waits on the same
        flight: the leader gets the original exception, the admission slot
        and the flight are released, the waiter retries instead of being
        stranded, and the service keeps serving."""
        original = Executor.execute_fragment
        failure = ExecutionError("shard 1 failed")
        leader_in_shard = threading.Event()
        follower_started = threading.Event()
        raised = []

        def execute_fragment(executor, fragment, query=None):
            if executor.db.name.endswith(".shard1") and not raised:
                raised.append(executor.db.name)
                leader_in_shard.set()
                follower_started.wait(timeout=60)
                time.sleep(0.05)  # let the follower reach the flight's event
                raise failure
            return original(executor, fragment, query)

        monkeypatch.setattr(Executor, "execute_fragment", execute_fragment)
        outcomes = {}

        def serve(role, service):
            try:
                outcomes[role] = service.execute(SQL_PARTIAL, [30])
            except Exception as error:  # noqa: BLE001 - collected for the assert
                outcomes[role] = error

        with ShardedQueryService(db, num_shards=2) as service:
            leader = threading.Thread(target=serve, args=("leader", service), daemon=True)
            leader.start()
            assert leader_in_shard.wait(timeout=120)
            follower = threading.Thread(
                target=serve, args=("follower", service), daemon=True
            )
            follower.start()
            follower_started.set()
            for thread in (leader, follower):
                thread.join(timeout=120)
                assert not thread.is_alive()
            assert outcomes["leader"] is failure
            expected = single.execute(SQL_PARTIAL, [30]).execution
            assert_bit_identical(expected, outcomes["follower"].execution)
            assert (service.stats.shed, service.stats.timed_out) == (0, 0)
            assert service._in_flight == {}
            assert service.admission.in_flight == 0
            again = service.execute(SQL_GATHER, [30])
            assert again.source == "scatter_gather"
            assert_bit_identical(single.execute(SQL_GATHER, [30]).execution, again.execution)

    def test_concurrent_scatters_match_single_node(self, db, single):
        """Shards run on the callers' threads: eight clients scatter at
        once with the result cache off, and every output equals the
        single-node bytes."""
        bindings = ((SQL_PARTIAL, (5, 17)), (SQL_GATHER, (5, 17)), (SQL_PROJECTION, (2, 4)))
        requests = [(sql, [param]) for sql, params in bindings for param in params]
        expected = [single.execute(sql, params).execution for sql, params in requests]
        clients, per_client = 8, 3
        served = []
        errors = []

        def client(index, service):
            try:
                for step in range(per_client):
                    position = (index + step) % len(requests)
                    sql, params = requests[position]
                    result = service.execute(sql, params)
                    served.append((position, result))
            except Exception as error:  # noqa: BLE001 - collected for the assert
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            settings = ServiceSettings(use_result_cache=False)
            with ShardedQueryService(db, num_shards=2, settings=settings) as service:
                threads = [
                    threading.Thread(target=client, args=(index, service), daemon=True)
                    for index in range(clients)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                    assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert len(served) == clients * per_client
        assert {result.source for _, result in served} == {"scatter_partial", "scatter_gather"}
        for position, result in served:
            assert_bit_identical(expected[position], result.execution)

    def test_concurrent_scatters_lose_no_counter_update(self, db):
        """More client threads than cores, a short switch interval: every
        request lands in exactly one counter (the bumps hold ``_stats_lock``)."""
        clients, per_client = 6, 4
        errors = []

        def client(index, service):
            try:
                for step in range(per_client):
                    sql = SQL_PARTIAL if step % 2 else SQL_PROJECTION
                    service.execute(sql, [2 + (index + step) % 5])
            except Exception as error:  # noqa: BLE001 - collected for the assert
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ShardedQueryService(db, num_shards=2) as service:
                threads = [
                    threading.Thread(target=client, args=(index, service), daemon=True)
                    for index in range(clients)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                    assert not thread.is_alive()
                stats = service.stats
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert stats.queries == clients * per_client
        executed = stats.partial_merges + stats.gather_merges
        assert executed + stats.result_cache_hits + stats.coalesced == stats.queries
        assert executed == 10  # 5 distinct bindings of each of the 2 templates
        assert stats.shed == stats.timed_out == 0 and service._in_flight == {}

    def test_closed_coordinator_raises(self, db):
        service = ShardedQueryService(db, num_shards=2)
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.execute(SQL_PARTIAL, [30])

    def test_closing_the_coordinator_closes_every_shard(self, db):
        service = ShardedQueryService(db, num_shards=3)
        service.close()
        for shard in service.shards:
            with pytest.raises(RuntimeError, match="closed"):
                shard.execute(SQL_PARTIAL, [30])


def _record_shard_calls(monkeypatch, fail_on=None):
    """Patch ``Executor.execute_fragment`` to log ``(shard db, thread)`` per
    call; a call on shard ``fail_on`` raises the returned failure instead."""
    original = Executor.execute_fragment
    calls = []
    failure = ExecutionError(f"shard {fail_on} failed")

    def execute_fragment(executor, fragment, query=None):
        calls.append((executor.db.name, threading.get_ident()))
        if fail_on is not None and executor.db.name.endswith(f".shard{fail_on}"):
            raise failure
        return original(executor, fragment, query)

    monkeypatch.setattr(Executor, "execute_fragment", execute_fragment)
    return calls, failure


class TestInProcessScatter:
    def test_shards_run_in_canonical_order_on_the_callers_thread(self, db, monkeypatch):
        calls, _ = _record_shard_calls(monkeypatch)
        with ShardedQueryService(db, num_shards=3) as service:
            assert service.execute(SQL_PARTIAL, [30]).source == "scatter_partial"
        caller = threading.get_ident()
        assert calls == [(f"{db.name}.shard{index}", caller) for index in range(3)]

    @pytest.mark.parametrize("num_shards", [2, 3, 4])
    def test_scatter_counts_one_inline_task_per_shard(self, db, num_shards):
        settings = ServiceSettings(use_result_cache=False)
        with ShardedQueryService(db, num_shards=num_shards, settings=settings) as service:
            service.execute(SQL_PARTIAL, [30])
            service.execute(SQL_GATHER, [30])
            service.execute(SQL_REPLICATED, [20])  # single route: no scatter
            stats = service.scheduler.stats()
            assert stats.tasks_inline == 2 * num_shards
            assert stats.tasks_process == 0
            assert service.stats.inline_shard_reruns == 0

    def test_shared_scheduler_counts_every_coordinators_scatter(self, db):
        shared = TaskScheduler(name="shared")
        for num_shards in (2, 3):
            with ShardedQueryService(db, num_shards=num_shards, scheduler=shared) as service:
                assert service.scheduler is shared
                service.execute(SQL_PARTIAL, [30])
        assert shared.stats().tasks_inline == 2 + 3
        # Closing the services leaves the caller's scheduler usable.
        assert shared.map_kernel(lambda item: item, [1]) == [1]

    @pytest.mark.parametrize("failing_shard", [0, 1])
    def test_failing_shard_releases_the_request(self, db, single, monkeypatch, failing_shard):
        """The caller gets the shard's own exception; later shards do not
        run; the admission slot and the flight are released; the next
        request on the same service is served."""
        calls, failure = _record_shard_calls(monkeypatch, fail_on=failing_shard)
        with ShardedQueryService(db, num_shards=2) as service:
            with pytest.raises(ExecutionError) as excinfo:
                service.execute(SQL_PARTIAL, [30])
            assert excinfo.value is failure
            assert [name for name, _ in calls] == [
                f"{db.name}.shard{index}" for index in range(failing_shard + 1)
            ]
            assert (service.stats.shed, service.stats.timed_out) == (0, 0)
            assert service._in_flight == {}
            assert service.admission.in_flight == 0
            monkeypatch.undo()
            again = service.execute(SQL_PARTIAL, [30])
            assert again.source == "scatter_partial"
            assert_bit_identical(single.execute(SQL_PARTIAL, [30]).execution, again.execution)


class TestShardPlanCache:
    def test_shard_drift_guard_keeps_its_own_sampled_expectations(self, db):
        """Each shard plans from its own samples: after a scatter, every
        shard's drift guard holds exactly the Γ its own Algorithm 1 run
        validated, untouched by its siblings' executions."""
        with ShardedQueryService(db, num_shards=3) as service:
            result = service.execute(SQL_PARTIAL, [30])
            assert result.source == "scatter_partial"
            for shard in service.shards:
                prepared = shard.prepare(SQL_PARTIAL)
                bound = prepared.bind([30])
                expected = Reoptimizer(shard.db).reoptimize(bound)
                entry = shard._plan_cache[prepared.fingerprint]
                assert entry.plan.signature() == expected.final_plan.signature()
                assert entry.expectations == dict(expected.gamma.items())
            assert service.stats.gossip_entries == 0

    def test_shard_replan_starts_from_its_own_delta(self, db, monkeypatch):
        """A drift replan on one shard is Algorithm 1 under that shard's
        fresh Δ alone, and leaves its siblings' cache entries untouched."""
        with ShardedQueryService(db, num_shards=2) as service:
            service.execute(SQL_PARTIAL, [30])
            shard, sibling = service.shards
            prepared = shard.prepare(SQL_PARTIAL)
            sibling_entry = sibling._plan_cache[prepared.fingerprint]
            sibling_plan = sibling_entry.plan
            sibling_expectations = dict(sibling_entry.expectations)

            entry = shard._plan_cache[prepared.fingerprint]
            bound = prepared.bind([18])
            validation = validate_plan_for_bindings(
                shard.db, bound, rebind_plan(entry.plan, bound)
            )
            # Force a drift rejection on the next execution of the template.
            monkeypatch.setattr(cache_module, "DRIFT_THRESHOLD", 0.0)
            result = shard.execute(SQL_PARTIAL, [18])

            assert result.source == "replan"
            gamma = Gamma()
            gamma.merge(validation.cardinalities)
            expected = Reoptimizer(shard.db).reoptimize(bound, gamma=gamma)
            assert entry.plan.signature() == expected.final_plan.signature()
            assert entry.expectations == dict(expected.gamma.items())
            assert sibling_entry.plan is sibling_plan
            assert sibling_entry.expectations == sibling_expectations

    @pytest.mark.parametrize("sql", [SQL_PARTIAL, SQL_GATHER, SQL_PROJECTION])
    def test_coordinator_gossip_counter_stays_zero(self, db, sql):
        """The coordinator keeps ``gossip_entries`` only for readers of its
        stats; no route ever moves it off zero."""
        with ShardedQueryService(db, num_shards=2) as service:
            service.execute(sql, [30])
            assert service.stats.gossip_entries == 0
