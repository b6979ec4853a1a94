"""Load generator: schedule reproducibility, aggregation, end-to-end runs."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.bench.loadgen import (
    LoadgenConfig,
    ScheduledRequest,
    TemplateMix,
    build_schedule,
    run_load,
    zipf_weights,
)
from repro.bench.reporting import stage_breakdown, summarize_latencies
from repro.service import (
    QueryService,
    ServiceSettings,
    ShardedQueryService,
    ShardingSpec,
)
from repro.service.tracing import RequestTrace
from repro.sql.builder import QueryBuilder
from repro.workloads.ott import generate_ott_database


@pytest.fixture(scope="module")
def loadgen_db():
    return generate_ott_database(
        num_tables=4, rows_per_table=2000, rows_per_value=40, seed=11, sampling_ratio=0.25
    )


@pytest.fixture(scope="module")
def loadgen_mix():
    pairs = (
        QueryBuilder("lg_pairs")
        .table("r1").table("r2")
        .filter_param("r1", "a", "=")
        .join("r1", "b", "r2", "b")
        .aggregate("count", output_name="n")
        .build()
    )
    triples = (
        QueryBuilder("lg_triples")
        .table("r1").table("r3")
        .filter_param("r3", "a", "=")
        .join("r1", "b", "r3", "b")
        .aggregate("count", output_name="n")
        .build()
    )
    return TemplateMix.build(
        [pairs, triples],
        {"lg_pairs": [[0], [1], [2]], "lg_triples": [[0], [1]]},
    )


class TestSchedule:
    def test_schedule_is_bit_reproducible(self, loadgen_mix):
        config = LoadgenConfig(num_requests=64, seed=23)
        assert build_schedule(config, loadgen_mix) == build_schedule(config, loadgen_mix)

    def test_different_seeds_differ(self, loadgen_mix):
        base = LoadgenConfig(num_requests=64, seed=1)
        other = LoadgenConfig(num_requests=64, seed=2)
        assert build_schedule(base, loadgen_mix) != build_schedule(other, loadgen_mix)

    def test_closed_loop_assigns_clients_round_robin(self, loadgen_mix):
        config = LoadgenConfig(num_requests=12, num_clients=3, seed=7)
        schedule = build_schedule(config, loadgen_mix)
        assert [request.client for request in schedule[:3]] == [
            "client0", "client1", "client2"
        ]
        per_client = {}
        for request in schedule:
            per_client[request.client] = per_client.get(request.client, 0) + 1
        assert per_client == {"client0": 4, "client1": 4, "client2": 4}

    def test_zipf_skew_prefers_low_ranks(self, loadgen_mix):
        weights = zipf_weights(5, 1.0)
        assert weights[0] > weights[1] > weights[4]
        assert weights.sum() == pytest.approx(1.0)
        uniform = zipf_weights(5, 0.0)
        assert np.allclose(uniform, 0.2)
        config = LoadgenConfig(num_requests=500, zipf_s=1.5, seed=3)
        schedule = build_schedule(config, loadgen_mix)
        counts = np.zeros(len(loadgen_mix.pairs()))
        pair_rank = {pair: rank for rank, pair in enumerate(loadgen_mix.pairs())}
        for request in schedule:
            counts[pair_rank[(request.template_index, request.binding_index)]] += 1
        assert counts[0] > counts[-1]

    def test_schedule_draws_only_pairs_of_the_mix(self, loadgen_mix):
        config = LoadgenConfig(num_requests=50, seed=9)
        schedule = build_schedule(config, loadgen_mix)
        assert [request.index for request in schedule] == list(range(50))
        pairs = set(loadgen_mix.pairs())
        assert all(
            (request.template_index, request.binding_index) in pairs
            for request in schedule
        )

    def test_more_clients_than_requests_leaves_clients_idle(self, loadgen_mix):
        config = LoadgenConfig(num_requests=3, num_clients=8, seed=1)
        clients = [request.client for request in build_schedule(config, loadgen_mix)]
        assert clients == ["client0", "client1", "client2"]

    @pytest.mark.parametrize("count", [0, -1])
    def test_zipf_weights_need_a_positive_count(self, count):
        with pytest.raises(ValueError, match="count"):
            zipf_weights(count, 1.0)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="num_requests"):
            LoadgenConfig(num_requests=0)
        with pytest.raises(ValueError, match="num_clients"):
            LoadgenConfig(num_clients=0)


class TestTemplateMix:
    def test_pairs_flatten_bindings_in_template_order(self, loadgen_mix):
        assert loadgen_mix.pairs() == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)]

    def test_lookup_returns_the_template_and_its_binding(self, loadgen_mix):
        template, binding = loadgen_mix.lookup(1, 1)
        assert template.name == "lg_triples"
        assert list(binding) == [1]
        template, binding = loadgen_mix.lookup(0, 2)
        assert template.name == "lg_pairs"
        assert list(binding) == [2]


class _RecordingService:
    """A stand-in service that records who asked for what, in which order."""

    def __init__(self):
        self.lock = threading.Lock()
        self.calls = []

    def execute(self, statement, params=None, client="default", trace=None):
        with self.lock:
            self.calls.append((client, statement.name, tuple(params)))
        trace.outcome = "ok"
        trace.source = "fresh"
        trace.total_s = 0.001
        return None


class TestClosedLoop:
    def test_each_client_issues_its_requests_in_schedule_order(self, loadgen_mix):
        config = LoadgenConfig(num_requests=20, num_clients=4, seed=13)
        service = _RecordingService()
        run = run_load(service, loadgen_mix, config)
        schedule = build_schedule(config, loadgen_mix)
        for client in ("client0", "client1", "client2", "client3"):
            expected = []
            for request in schedule:
                if request.client == client:
                    template, binding = loadgen_mix.lookup(
                        request.template_index, request.binding_index
                    )
                    expected.append((client, template.name, tuple(binding)))
            assert [call for call in service.calls if call[0] == client] == expected
        assert run.completed == 20
        assert run.sources == {"fresh": 20}
        # A result without an execution records no output columns.
        assert run.outputs == {}

    def test_think_time_separates_a_clients_requests(self, loadgen_mix):
        config = LoadgenConfig(
            num_requests=4, num_clients=1, think_time_s=0.02, seed=13
        )
        run = run_load(_RecordingService(), loadgen_mix, config)
        # Three pauses between four requests of the one client.
        assert run.wall_s >= 3 * 0.02
        assert run.completed == 4


class TestAggregation:
    def test_summarize_latencies(self):
        summary = summarize_latencies([0.001 * k for k in range(1, 101)])
        assert summary.count == 100
        assert summary.mean_s == pytest.approx(0.0505)
        assert summary.p50_s == pytest.approx(0.0505)
        assert summary.p99_s == pytest.approx(0.09901, rel=1e-3)
        assert summary.max_s == pytest.approx(0.1)
        assert summarize_latencies([]).count == 0
        assert set(summary.as_dict()) == {
            "count", "mean_s", "p50_s", "p95_s", "p99_s", "max_s"
        }

    def test_stage_breakdown_means_and_overhead(self):
        traces = [
            RequestTrace(queue_wait_s=0.2, execution_s=0.4, total_s=1.0),
            RequestTrace(queue_wait_s=0.0, execution_s=0.6, total_s=0.8),
        ]
        breakdown = stage_breakdown(traces)
        assert breakdown["queue_wait_s"] == pytest.approx(0.1)
        assert breakdown["execution_s"] == pytest.approx(0.5)
        # (1.0 - 0.6) and (0.8 - 0.6) of unaccounted wall time, averaged.
        assert breakdown["overhead_s"] == pytest.approx(0.3)
        assert stage_breakdown([]) == {
            name: 0.0 for name in breakdown
        }


def _single_node(db):
    return QueryService(db)


def _two_shards(db):
    # Both templates join on ``b``, so co-partitioning on it routes them scatter.
    spec = ShardingSpec(partitioned={"r1": "b", "r2": "b", "r3": "b"})
    return ShardedQueryService(db, num_shards=2, spec=spec)


class TestRunLoad:
    @pytest.mark.parametrize(
        "make_service", [_single_node, _two_shards], ids=["single_node", "two_shards"]
    )
    def test_closed_runs_complete_and_match_serial(
        self, loadgen_db, loadgen_mix, make_service
    ):
        config = LoadgenConfig(num_requests=30, num_clients=3, think_time_s=0.0, seed=5)
        with make_service(loadgen_db) as service:
            run = run_load(service, loadgen_mix, config)
        # One serial single-node pass over every (template, binding) pair.
        reference = {}
        with QueryService(loadgen_db) as service:
            for template_index, binding_index in loadgen_mix.pairs():
                template, binding = loadgen_mix.lookup(template_index, binding_index)
                reference[(template.name, binding_index)] = service.execute(
                    template, binding
                ).execution.columns
        assert run.offered == 30
        assert run.completed == 30
        assert run.shed == 0 and run.timed_out == 0
        assert run.shed_rate == 0.0
        assert run.achieved_qps > 0
        assert run.latency.count == 30
        assert len(run.traces) == 30
        assert sum(run.sources.values()) == 30
        assert run.outputs
        for key, columns in run.outputs.items():
            assert list(columns) == list(reference[key])
            for name, values in columns.items():
                expected = np.asarray(reference[key][name])
                assert np.asarray(values).dtype == expected.dtype
                assert np.array_equal(values, expected)

    def test_shed_requests_are_counted_not_raised(
        self, loadgen_db, loadgen_mix, monkeypatch
    ):
        settings = ServiceSettings(
            max_concurrent=1, max_queued=0, use_result_cache=False,
            use_plan_cache=True,
        )
        # Eight think-free clients against a one-slot, queue-less gate; every
        # admitted request holds the slot for 20 ms, so requests overlap.
        config = LoadgenConfig(num_requests=40, num_clients=8, seed=5)
        with QueryService(loadgen_db, settings=settings) as service:
            serve = service._serve

            def slow_serve(*args, **kwargs):
                threading.Event().wait(timeout=0.02)
                return serve(*args, **kwargs)

            monkeypatch.setattr(service, "_serve", slow_serve)
            run = run_load(service, loadgen_mix, config)
        assert run.offered == 40
        assert run.completed + run.shed + run.timed_out == 40
        assert run.shed > 0  # the queue-less gate must have shed load
        assert run.shed_rate == pytest.approx((run.shed + run.timed_out) / 40)
        shed_traces = [trace for trace in run.traces if trace.outcome == "shed"]
        assert len(shed_traces) == run.shed
        assert all(trace.total_s > 0 for trace in shed_traces)

    def test_queued_requests_are_served(self, loadgen_db, loadgen_mix, monkeypatch):
        """Four clients share one slot: requests wait in the admission queue
        and are then served, none is rejected.  The admission deadline only
        bounds the run: a gate that never grants fails the test instead of
        hanging it."""
        settings = ServiceSettings(
            max_concurrent=1, max_queued=8, use_result_cache=False, admission_timeout=5.0
        )
        config = LoadgenConfig(num_requests=16, num_clients=4, seed=5)
        with QueryService(loadgen_db, settings=settings) as service:
            serve = service._serve

            def slow_serve(*args, **kwargs):
                threading.Event().wait(timeout=0.005)
                return serve(*args, **kwargs)

            monkeypatch.setattr(service, "_serve", slow_serve)
            run = run_load(service, loadgen_mix, config)
            assert service.admission.in_flight == 0
        assert run.completed == config.num_requests
        assert run.shed == run.timed_out == 0
        assert any(trace.queue_wait_s > 0 for trace in run.traces)
        assert all(trace.outcome == "ok" for trace in run.traces)
