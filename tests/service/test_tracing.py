"""Per-request traces: stage accounting across every serving path."""

from __future__ import annotations

import pytest

from repro.service import (
    BackpressureError,
    QueryService,
    RequestTrace,
    STAGE_FIELDS,
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


class TestRequestTrace:
    def test_stage_seconds_covers_every_stage_field(self):
        trace = RequestTrace(
            queue_wait_s=0.1, validation_s=0.2, planning_s=0.3,
            execution_s=0.4, merge_s=0.5, total_s=2.0,
        )
        stages = trace.stage_seconds()
        assert set(stages) == set(STAGE_FIELDS)
        assert stages["execution_s"] == pytest.approx(0.4)
        assert trace.accounted_s == pytest.approx(1.5)
        assert trace.overhead_s == pytest.approx(0.5)

    def test_overhead_never_negative(self):
        trace = RequestTrace(execution_s=1.0, total_s=0.5)
        assert trace.overhead_s == 0.0


class TestServiceTracing:
    def test_fresh_request_accounts_planning_and_execution(self, tracing_db):
        with QueryService(tracing_db) as service:
            result = service.execute(ott_template(), [0, 0, 0], client="alice")
            trace = result.trace
            assert trace is not None
            assert trace.client == "alice"
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
                service.execute(prepared, [1, 1, 1], client="bob", trace=trace)
            service.admission.release()
            assert trace.outcome == "shed"
            assert trace.client == "bob"
            assert trace.template == "trace_tpl"
            assert trace.total_s > 0.0
            assert trace.execution_s == 0.0

    def test_sharded_scatter_trace_accounts_execution_and_merge(self, tracing_db):
        spec = ShardingSpec(partitioned={"r1": "b", "r2": "b", "r3": "b"})
        with ShardedQueryService(tracing_db, num_shards=2, spec=spec) as service:
            result = service.execute(ott_template(), [0, 0, 0], client="carol")
            trace = result.trace
            assert trace is not None
            assert trace.client == "carol"
            assert trace.source.startswith("scatter")
            assert trace.execution_s > 0.0
            assert trace.merge_s > 0.0
            assert trace.total_s >= trace.execution_s + trace.merge_s
            hit = service.execute(ott_template(), [0, 0, 0]).trace
            assert hit is not None
            assert hit.source == "result_cache"
            assert hit.execution_s == 0.0
