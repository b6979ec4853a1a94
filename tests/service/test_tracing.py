"""Per-request traces: stage accounting across every serving path."""

from __future__ import annotations

import dataclasses

import pytest

from repro.service import (
    BackpressureError,
    QueryService,
    RequestTrace,
    ServiceSettings,
    ShardedQueryService,
    ShardingSpec,
)
from repro.sql.builder import QueryBuilder
from repro.workloads.ott import generate_ott_database


@pytest.fixture(scope="module")
def tracing_db():
    return generate_ott_database(
        num_tables=4, rows_per_table=2000, rows_per_value=40, seed=11, sampling_ratio=0.25
    )


def ott_template(name="trace_tpl"):
    return (
        QueryBuilder(name)
        .table("r1").table("r2").table("r3")
        .filter_param("r1", "a", "=")
        .filter_param("r2", "a", "=")
        .filter_param("r3", "a", "=")
        .join("r1", "b", "r2", "b")
        .join("r2", "b", "r3", "b")
        .aggregate("count", output_name="n")
        .build()
    )


class TestServiceTracing:
    def test_fresh_request_accounts_planning_and_execution(self, tracing_db):
        with QueryService(tracing_db) as service:
            result = service.execute(ott_template(), [0, 0, 0])
            trace = result.trace
            assert trace is not None
            assert trace.template == "trace_tpl"
            assert trace.source == "fresh"
            assert trace.outcome == "ok"
            assert trace.planning_s > 0.0
            assert trace.execution_s > 0.0
            assert trace.total_s >= trace.execution_s

    def test_result_cache_hit_skips_planning_and_execution(self, tracing_db):
        with QueryService(tracing_db) as service:
            prepared = service.prepare(ott_template())
            service.execute(prepared, [0, 0, 0])
            hit = service.execute(prepared, [0, 0, 0]).trace
            assert hit is not None
            assert hit.source == "result_cache"
            assert hit.planning_s == 0.0
            assert hit.execution_s == 0.0
            assert hit.total_s > 0.0

    def test_caller_supplied_trace_survives_shedding(self, tracing_db):
        settings = ServiceSettings(max_concurrent=1, max_queued=0)
        with QueryService(tracing_db, settings=settings) as service:
            prepared = service.prepare(ott_template())
            service.execute(prepared, [0, 0, 0])  # warm the plan cache
            service.admission.acquire()  # occupy the only slot
            trace = RequestTrace()
            with pytest.raises(BackpressureError):
                service.execute(prepared, [1, 1, 1], trace=trace)
            service.admission.release()
            assert trace.outcome == "shed"
            assert trace.template == "trace_tpl"
            assert trace.total_s > 0.0
            assert trace.execution_s == 0.0

    def test_sharded_scatter_trace_accounts_execution_and_merge(self, tracing_db):
        spec = ShardingSpec(partitioned={"r1": "b", "r2": "b", "r3": "b"})
        with ShardedQueryService(tracing_db, num_shards=2, spec=spec) as service:
            result = service.execute(ott_template(), [0, 0, 0])
            trace = result.trace
            assert trace is not None
            assert trace.source.startswith("scatter")
            assert trace.execution_s > 0.0
            assert trace.merge_s > 0.0
            assert trace.total_s >= trace.execution_s + trace.merge_s
            hit = service.execute(ott_template(), [0, 0, 0]).trace
            assert hit is not None
            assert hit.source == "result_cache"
            assert hit.execution_s == 0.0

    def test_validated_reuse_accounts_validation_not_planning(self, tracing_db):
        settings = ServiceSettings(use_result_cache=False)
        with QueryService(tracing_db, settings=settings) as service:
            prepared = service.prepare(ott_template())
            service.execute(prepared, [0, 0, 0])
            reuse = service.execute(prepared, [0, 0, 0]).trace
            assert reuse is not None
            assert reuse.source == "validated_reuse"
            assert reuse.validation_s > 0.0
            assert reuse.planning_s == 0.0
            assert reuse.execution_s > 0.0

    @pytest.mark.parametrize("sharded", [False, True], ids=["single_node", "two_shards"])
    def test_stage_times_fit_inside_the_total(self, tracing_db, sharded):
        """Stages are disjoint spans of one request: their sum never exceeds
        ``total_s``, whichever path served it."""
        if sharded:
            spec = ShardingSpec(partitioned={"r1": "b", "r2": "b", "r3": "b"})
            service = ShardedQueryService(tracing_db, num_shards=2, spec=spec)
        else:
            service = QueryService(tracing_db)
        stages = ("queue_wait_s", "validation_s", "planning_s", "execution_s", "merge_s")
        with service:
            prepared = service.prepare(ott_template())
            traces = [service.execute(prepared, binding).trace
                      for binding in ([0, 0, 0], [0, 0, 0], [1, 1, 1], [2, 0, 1])]
        assert {trace.source for trace in traces} >= {"result_cache"}
        for trace in traces:
            durations = [getattr(trace, stage) for stage in stages]
            assert all(duration >= 0.0 for duration in durations)
            assert sum(durations) <= trace.total_s

    def test_drift_replan_accounts_validation_and_planning(self, tracing_db):
        """A replan first validates the cached plan, then runs Algorithm 1."""
        settings = ServiceSettings(use_result_cache=False, drift_threshold=0.0)
        with QueryService(tracing_db, settings=settings) as service:
            prepared = service.prepare(ott_template())
            fresh = service.execute(prepared, [0, 0, 0]).trace
            replan = service.execute(prepared, [1, 1, 1]).trace
            assert fresh is not None and replan is not None
            assert fresh.source == "fresh" and fresh.validation_s == 0.0
            assert replan.source == "replan"
            assert replan.validation_s > 0.0
            assert replan.planning_s > 0.0
            assert replan.total_s >= replan.validation_s + replan.planning_s


def test_trace_carries_the_outcome_and_five_stages():
    """What the service writes and perfbench reads; nothing else."""
    assert [field.name for field in dataclasses.fields(RequestTrace)] == [
        "template", "source", "outcome",
        "queue_wait_s", "validation_s", "planning_s", "execution_s", "merge_s",
        "total_s",
    ]
