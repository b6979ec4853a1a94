"""Closed-loop clients: several threads, each issuing its share of one
seeded request list back to back, against one service.

Outputs must equal a serial single-node pass, and every request must end
in exactly one of served, shed or timed out."""

from __future__ import annotations

import threading

import numpy as np
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
def clients_db():
    return generate_ott_database(
        num_tables=4, rows_per_table=2000, rows_per_value=40, seed=11, sampling_ratio=0.25
    )


def _templates():
    pairs = (
        QueryBuilder("cl_pairs")
        .table("r1").table("r2")
        .filter_param("r1", "a", "=")
        .join("r1", "b", "r2", "b")
        .aggregate("count", output_name="n")
        .build()
    )
    triples = (
        QueryBuilder("cl_triples")
        .table("r1").table("r3")
        .filter_param("r3", "a", "=")
        .join("r1", "b", "r3", "b")
        .aggregate("count", output_name="n")
        .build()
    )
    return [(pairs, [0]), (pairs, [1]), (pairs, [2]), (triples, [0]), (triples, [1])]


def _requests(count, seed=5):
    """``count`` (template, binding) draws from one seeded generator."""
    pool = _templates()
    rng = np.random.default_rng(seed)
    return [pool[int(choice)] for choice in rng.choice(len(pool), size=count)]


def _run_clients(service, requests, clients):
    """Client ``i`` issues ``requests[i::clients]`` in order, no think time.

    Returns one ``(trace, result or BackpressureError)`` per request, in
    request order; any other exception fails the test."""
    outcomes = [None] * len(requests)
    errors = []

    def session(index):
        try:
            for position in range(index, len(requests), clients):
                statement, binding = requests[position]
                trace = RequestTrace()
                try:
                    outcomes[position] = (trace, service.execute(statement, binding, trace=trace))
                except BackpressureError as error:
                    outcomes[position] = (trace, error)
        except Exception as error:  # noqa: BLE001 - collected for the assert
            errors.append(error)

    threads = [threading.Thread(target=session, args=(index,), daemon=True)
               for index in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    assert not errors
    return outcomes


def _slow_serve(service, monkeypatch, seconds):
    """Hold the admission slot ``seconds`` longer per executed request."""
    serve = service._serve

    def slow_serve(*args, **kwargs):
        threading.Event().wait(timeout=seconds)
        return serve(*args, **kwargs)

    monkeypatch.setattr(service, "_serve", slow_serve)


def _single_node(db, settings=None):
    return QueryService(db, settings=settings)


def _two_shards(db, settings=None):
    # Both templates join on ``b``, so co-partitioning on it routes them scatter.
    spec = ShardingSpec(partitioned={"r1": "b", "r2": "b", "r3": "b"})
    return ShardedQueryService(db, num_shards=2, spec=spec, settings=settings)


both_services = pytest.mark.parametrize(
    "make_service", [_single_node, _two_shards], ids=["single_node", "two_shards"]
)


@both_services
def test_closed_loop_outputs_match_a_serial_pass(clients_db, make_service):
    requests = _requests(30)
    with make_service(clients_db) as service:
        outcomes = _run_clients(service, requests, clients=3)
        assert service.stats.queries == 30
        assert service.stats.shed == service.stats.timed_out == 0
    with QueryService(clients_db) as serial:
        expected = [serial.execute(statement, binding).execution.columns
                    for statement, binding in requests]
    for (trace, result), reference in zip(outcomes, expected):
        assert trace.outcome == "ok"
        assert list(result.execution.columns) == list(reference)
        for name, values in result.execution.columns.items():
            assert np.asarray(values).dtype == np.asarray(reference[name]).dtype
            assert np.array_equal(values, reference[name])


@both_services
def test_shed_requests_are_counted_and_traced(clients_db, monkeypatch, make_service):
    """Eight clients against a one-slot, queue-less gate; every admitted
    request holds the slot for 20 ms, so requests overlap and some are shed."""
    settings = ServiceSettings(max_concurrent=1, max_queued=0, use_result_cache=False)
    offered = 40
    with make_service(clients_db, settings) as service:
        _slow_serve(service, monkeypatch, 0.02)
        outcomes = _run_clients(service, _requests(offered), clients=8)
        stats = service.stats
        assert stats.queries + stats.shed + stats.timed_out == offered
        assert stats.shed > 0
    rejected = [(trace, error) for trace, error in outcomes
                if isinstance(error, BackpressureError)]
    assert len(rejected) == stats.shed + stats.timed_out
    shed = [trace for trace, error in rejected if error.kind == "shed"]
    assert len(shed) == stats.shed
    assert all(trace.outcome == "shed" and trace.total_s > 0 for trace in shed)


@both_services
def test_queued_requests_are_all_served(clients_db, monkeypatch, make_service):
    """Four clients share one slot: requests wait in the admission queue and
    are then served, none is rejected.  The admission deadline only bounds
    the run: a gate that never grants fails the test instead of hanging it."""
    settings = ServiceSettings(
        max_concurrent=1, max_queued=8, use_result_cache=False, admission_timeout=5.0
    )
    with make_service(clients_db, settings) as service:
        _slow_serve(service, monkeypatch, 0.005)
        outcomes = _run_clients(service, _requests(16), clients=4)
        assert service.admission.in_flight == 0
        assert service.stats.queries == 16
    traces = [trace for trace, _ in outcomes]
    assert all(trace.outcome == "ok" for trace in traces)
    assert any(trace.queue_wait_s > 0 for trace in traces)


@both_services
def test_timed_out_requests_are_counted_and_traced(clients_db, monkeypatch, make_service):
    """Eight clients queue for one slot that each admitted request holds for
    30 ms, under a 10 ms admission deadline: some requests time out in the
    queue, and each is counted once and traced as ``timeout``."""
    settings = ServiceSettings(
        max_concurrent=1, max_queued=8, use_result_cache=False, admission_timeout=0.01
    )
    offered = 24
    with make_service(clients_db, settings) as service:
        _slow_serve(service, monkeypatch, 0.03)
        outcomes = _run_clients(service, _requests(offered), clients=8)
        stats = service.stats
        assert stats.queries + stats.shed + stats.timed_out == offered
        assert stats.timed_out > 0
        assert service.admission.in_flight == 0
    timed_out = [trace for trace, error in outcomes
                 if isinstance(error, BackpressureError) and error.kind == "timeout"]
    assert len(timed_out) == stats.timed_out
    assert all(trace.outcome == "timeout" and trace.queue_wait_s > 0 for trace in timed_out)
