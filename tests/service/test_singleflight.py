"""Singleflight coalescing: leaders, followers, and crashed leaders.

The coalescing layer (``QueryService._serve_coalesced``) keeps a thundering
herd of identical requests at one execution.  These tests pin the contract:
exactly one leader executes, followers ride its flight, and a leader that
*fails* — planning bug, execution error, shed by admission — must release
its followers to retry rather than strand them on a dead event or poison
them with its error.

The layer exists once, so every case runs against a single-node
``QueryService`` and a 2-shard ``ShardedQueryService`` whose requests take
the scatter route.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.service import cache as cache_module
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
def singleflight_db():
    return generate_ott_database(
        num_tables=4, rows_per_table=2000, rows_per_value=40, seed=11, sampling_ratio=0.25
    )


#: Co-partitions the template's three tables on their join column, so the
#: sharded service scatters it (and merges exact partial counts).
OTT_SPEC = ShardingSpec(partitioned={"r1": "b", "r2": "b", "r3": "b"})


@pytest.fixture(params=["single", "sharded"])
def make_service(request, singleflight_db):
    """``(factory, source of an executed request)`` for both services."""
    if request.param == "single":
        return (lambda **kwargs: QueryService(singleflight_db, **kwargs)), "fresh"
    return (
        lambda **kwargs: ShardedQueryService(
            singleflight_db, num_shards=2, spec=OTT_SPEC, **kwargs
        )
    ), "scatter_partial"


def planners(service):
    """The services that plan: the shards of a coordinator, else the service."""
    return getattr(service, "shards", [service])


def ott_template(name="sf_tpl"):
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


def _run_concurrently(service, prepared, count, results, errors, barrier=None):
    """Start ``count`` identical executions; return the (started) threads."""

    def run():
        if barrier is not None:
            barrier.wait(timeout=10)
        try:
            results.append(service.execute(prepared, [0, 0, 0]))
        except Exception as error:  # noqa: BLE001 - collected for assertions
            errors.append(error)

    threads = [threading.Thread(target=run, daemon=True) for _ in range(count)]
    for thread in threads:
        thread.start()
    return threads


def _park_leader(service):
    """Patch the ``_serve`` seam so whoever executes signals ``entered`` and
    then waits for ``release``; returns ``(entered, release)``."""
    entered, release = threading.Event(), threading.Event()
    original_serve = service._serve

    def slow_serve(*args, **kwargs):
        entered.set()
        assert release.wait(timeout=10)
        return original_serve(*args, **kwargs)

    service._serve = slow_serve
    return entered, release


class TestCoalescing:
    @pytest.mark.parametrize(
        "result_cache_entries", [256, 0], ids=["cached", "no_cache_lines"]
    )
    def test_followers_ride_the_leaders_flight(
        self, make_service, monkeypatch, result_cache_entries
    ):
        """Followers read the leader's result off its flight, so they never
        re-execute, even when the result cache keeps no line for it."""
        monkeypatch.setattr(cache_module, "RESULT_CACHE_ENTRIES", result_cache_entries)
        factory, executed_source = make_service
        with factory() as service:
            prepared = service.prepare(ott_template())
            leader_entered, release_leader = _park_leader(service)
            results, errors = [], []
            leader_thread = _run_concurrently(service, prepared, 1, results, errors)
            assert leader_entered.wait(timeout=10)
            follower_threads = _run_concurrently(service, prepared, 3, results, errors)
            # Give the followers time to park on the in-flight event before
            # the leader publishes; a follower that arrives late would be a
            # plain result-cache hit, which the source tally below rejects.
            deadline = threading.Event()
            deadline.wait(timeout=0.25)
            release_leader.set()
            for thread in leader_thread + follower_threads:
                thread.join(timeout=10)

            assert not errors
            assert len(results) == 4
            sources = sorted(result.source for result in results)
            assert sources == ["coalesced", "coalesced", "coalesced", executed_source]
            assert all(node.stats.fresh_plans == 1 for node in planners(service))
            assert service.stats.coalesced == 3
            rows = {int(result.execution.columns["n"][0]) for result in results}
            assert len(rows) == 1  # all four read the same published rows
            # Every coalesced response still carries a trace with its wait.
            for result in results:
                assert result.trace is not None
                if result.source == "coalesced":
                    assert result.trace.queue_wait_s > 0.0

    def test_crashed_leader_releases_followers_to_rerun(self, make_service):
        """A leader that raises mid-serve must not strand or poison followers.

        The followers wake from the dead flight, find no published result,
        and retry from the top — one becomes the next leader and serves the
        rest.  Only the crashed leader sees the error."""
        factory, _ = make_service
        with factory() as service:
            prepared = service.prepare(ott_template())
            leader_entered = threading.Event()
            crash_leader = threading.Event()
            original_serve = service._serve
            crashes = []

            def crashing_serve(*args, **kwargs):
                if not crashes:
                    crashes.append(True)
                    leader_entered.set()
                    assert crash_leader.wait(timeout=10)
                    raise RuntimeError("leader died mid-execution")
                return original_serve(*args, **kwargs)

            service._serve = crashing_serve
            results, errors = [], []
            leader_thread = _run_concurrently(service, prepared, 1, results, errors)
            assert leader_entered.wait(timeout=10)
            follower_threads = _run_concurrently(service, prepared, 3, results, errors)
            parked = threading.Event()
            parked.wait(timeout=0.25)
            crash_leader.set()
            for thread in leader_thread + follower_threads:
                thread.join(timeout=10)
                assert not thread.is_alive()  # nobody stranded on the event

            # Exactly the leader failed, with its own error — not a
            # BackpressureError, and not propagated to any follower.
            assert len(errors) == 1
            assert isinstance(errors[0], RuntimeError)
            assert "leader died" in str(errors[0])
            assert len(results) == 3
            rows = {int(result.execution.columns["n"][0]) for result in results}
            assert len(rows) == 1
            # The flight table is clean: no dead event left registered.
            assert service._in_flight == {}

    def test_leader_shed_by_admission_releases_followers(self, make_service):
        """Backpressure on the leader is a leader failure like any other."""
        factory, _ = make_service
        with factory() as service:
            prepared = service.prepare(ott_template())
            leader_entered = threading.Event()
            shed_leader = threading.Event()
            sheds = []
            original_acquire = service.admission.acquire

            def shedding_acquire(timeout=None):
                if not sheds:
                    sheds.append(True)
                    leader_entered.set()
                    assert shed_leader.wait(timeout=10)
                    raise BackpressureError("synthetic shed", kind="shed")
                return original_acquire(timeout=timeout)

            service.admission.acquire = shedding_acquire
            results, errors = [], []
            leader_thread = _run_concurrently(service, prepared, 1, results, errors)
            assert leader_entered.wait(timeout=10)
            follower_threads = _run_concurrently(service, prepared, 2, results, errors)
            parked = threading.Event()
            parked.wait(timeout=0.25)
            shed_leader.set()
            for thread in leader_thread + follower_threads:
                thread.join(timeout=10)
                assert not thread.is_alive()

            assert len(errors) == 1
            assert isinstance(errors[0], BackpressureError)
            assert errors[0].kind == "shed"
            assert len(results) == 2
            assert service._in_flight == {}
            # The shed leader's trace-side accounting happened in execute():
            # the service counted exactly one rejection, a shed.
            assert (service.stats.shed, service.stats.timed_out) == (1, 0)

    def test_sequential_requests_do_not_coalesce(self, make_service):
        """Coalescing only merges *concurrent* identical requests."""
        factory, executed_source = make_service
        with factory() as service:
            prepared = service.prepare(ott_template())
            first = service.execute(prepared, [0, 0, 0])
            second = service.execute(prepared, [0, 0, 0])
            assert first.source == executed_source
            assert second.source == "result_cache"
            assert service.stats.coalesced == 0
            assert np.array_equal(
                first.execution.columns["n"], second.execution.columns["n"]
            )

    def test_follower_times_out_on_a_stuck_leader(self, make_service):
        """``admission_timeout`` caps a coalesced wait: the follower is
        rejected with its wait on the trace, the leader is unaffected."""
        factory, executed_source = make_service
        with factory(settings=ServiceSettings(admission_timeout=0.05)) as service:
            prepared = service.prepare(ott_template())
            leader_entered, release_leader = _park_leader(service)
            results, errors = [], []
            leader_thread = _run_concurrently(service, prepared, 1, results, errors)
            assert leader_entered.wait(timeout=10)
            trace = RequestTrace()
            with pytest.raises(BackpressureError) as excinfo:
                service.execute(prepared, [0, 0, 0], trace=trace)
            assert excinfo.value.kind == "timeout"
            assert trace.outcome == "timeout"
            assert trace.queue_wait_s == excinfo.value.waited_s >= 0.05
            # A coalesced follower's expired wait is a timeout, not a shed.
            assert (service.stats.shed, service.stats.timed_out) == (0, 1)
            release_leader.set()
            for thread in leader_thread:
                thread.join(timeout=10)
            assert not errors
            assert [result.source for result in results] == [executed_source]
            assert service._in_flight == {}
