"""The sharded scatter-gather coordinator.

Bit-identity against the single-node service on every route, deterministic
hash partitioning and co-partitioning, routing decisions, the missing-
registry inline fallback, the inherited result cache and admission gate on
the sharded routes, and cross-shard exact-Γ gossip.
"""

from __future__ import annotations

import dataclasses
import sys
import threading

import numpy as np
import pytest

import repro.service.coordinator as coordinator_module
from repro.errors import ExecutionError
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
            assert shard_db.table_statistics("lineitem") is not None

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

    def test_shed_scatter_request_is_backpressure(self, db):
        """Regression: the coordinator's forked ``execute`` caught a name it
        never imported, so a shed scatter request surfaced as ``NameError``."""
        settings = ServiceSettings(max_concurrent=1, max_queued=4, admission_timeout=0.05)
        with ShardedQueryService(db, num_shards=2, settings=settings) as service:
            service.admission.acquire("hog")  # occupy the only slot
            trace = RequestTrace()
            with pytest.raises(BackpressureError) as excinfo:
                service.execute(SQL_PARTIAL, [30], client="victim", trace=trace)
            service.admission.release()
            assert excinfo.value.kind == "timeout"
            assert trace.outcome == "timeout"
            assert trace.queue_wait_s == excinfo.value.waited_s >= 0.05
            assert service.stats.rejected == 1

        settings = ServiceSettings(max_concurrent=1, max_queued=0)
        with ShardedQueryService(db, num_shards=2, settings=settings) as service:
            service.admission.acquire("hog")
            trace = RequestTrace()
            with pytest.raises(BackpressureError):
                service.execute(SQL_PARTIAL, [30], client="victim", trace=trace)
            service.admission.release()
            assert trace.outcome == "shed"
            assert service.stats.rejected == 1
            assert service.admission_stats().shed == 1
            assert service.execute(SQL_PARTIAL, [30]).source == "scatter_partial"

    def test_scatter_execution_error_is_not_a_rejection(self, db, monkeypatch):
        def failing_shard(db, payload):
            raise ExecutionError("shard fragment failed")

        monkeypatch.setattr(
            coordinator_module, "lookup_shard", lambda token, shard_id: None
        )
        monkeypatch.setattr(coordinator_module, "_execute_shard", failing_shard)
        with ShardedQueryService(db, num_shards=2) as service:
            with pytest.raises(ExecutionError, match="shard fragment failed"):
                service.execute(SQL_PARTIAL, [30])
            assert service.stats.rejected == 0
            assert service.stats.queries == 0
            assert service._in_flight == {}

    def test_concurrent_scatters_lose_no_counter_update(self, db):
        """More client threads than cores, a short switch interval: every
        request lands in exactly one counter (the bumps hold ``_stats_lock``)."""
        clients, per_client = 6, 4
        errors = []

        def client(index, service):
            try:
                for step in range(per_client):
                    sql = SQL_PARTIAL if step % 2 else SQL_PROJECTION
                    service.execute(sql, [2 + (index + step) % 5], client=f"c{index}")
            except Exception as error:  # noqa: BLE001 - collected for the assert
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ShardedQueryService(db, num_shards=2) as service:
                threads = [
                    threading.Thread(target=client, args=(index, service))
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
        assert stats.rejected == 0 and service._in_flight == {}

    def test_missing_registry_reruns_inline(self, db, monkeypatch):
        monkeypatch.setattr(
            coordinator_module, "lookup_shard", lambda token, shard_id: None
        )
        with QueryService(db) as single, ShardedQueryService(db, num_shards=2) as service:
            expected = single.execute(SQL_PARTIAL, [30]).execution
            actual = service.execute(SQL_PARTIAL, [30]).execution
            assert service.stats.inline_shard_reruns == 2
            assert_bit_identical(expected, actual)

    def test_closed_coordinator_raises(self, db):
        service = ShardedQueryService(db, num_shards=2)
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.execute(SQL_PARTIAL, [30])


class TestGammaGossip:
    def test_scatter_broadcasts_exact_entries_to_siblings(self, db):
        with ShardedQueryService(db, num_shards=3) as service:
            result = service.execute(SQL_PARTIAL, [30])
            assert result.source == "scatter_partial"
            assert service.stats.gossip_entries > 0
            prepared = service.prepare(SQL_PARTIAL)
            for shard in service.shards:
                assert shard.stats.gossip_entries > 0
                entry = shard._plan_cache_get(prepared.fingerprint)
                assert entry is not None
                exact = entry.gossip.exact_join_sets()
                assert exact, "no exact Γ entries reached the sibling's cache"
                for join_set in sorted(exact, key=sorted):
                    assert entry.expectations[join_set] == entry.gossip.get(join_set)

    def test_gossip_seeds_the_replan_warm_start(self, db):
        """A replan after gossip starts from a Γ that already contains the
        siblings' exact entries — merged ahead of the fresh sampled Δ."""
        with ShardedQueryService(db, num_shards=2) as service:
            service.execute(SQL_PARTIAL, [30])
            prepared = service.prepare(SQL_PARTIAL)
            shard = service.shards[0]
            entry = shard._plan_cache_get(prepared.fingerprint)
            gossiped = dict(entry.gossip.items())
            assert gossiped
            # Force a drift rejection on the next execution of the template.
            shard.settings = dataclasses.replace(shard.settings, drift_threshold=0.0)
            result = shard.execute(SQL_PARTIAL, [18])
            assert result.source == "replan"
            refreshed = shard._plan_cache_get(prepared.fingerprint)
            for join_set in sorted(gossiped, key=sorted):
                assert join_set in refreshed.gossip.exact_join_sets()
