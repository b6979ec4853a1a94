"""QueryService: serving layers, drift guard, epochs, lifecycle."""

from __future__ import annotations

import subprocess
import sys

import numpy as np
import pytest

from repro.cardinality.gamma import Gamma
from repro.cardinality.sampling_estimator import validate_plan_for_bindings
from repro.errors import PlanningError
from repro.plans.join_tree import plans_identical, rebind_plan
from repro.reopt.algorithm import Reoptimizer
from repro.service import cache as cache_module
from repro.service import service as service_module
from repro.service import (
    BackpressureError,
    QueryService,
    ServiceSettings,
    ShardedQueryService,
    ShardingSpec,
)
from repro.sql.builder import QueryBuilder
from repro.storage.table import Column, Table, TableSchema
from repro.workloads.ott import generate_ott_database


@pytest.fixture(scope="module")
def service_ott_db():
    return generate_ott_database(
        num_tables=4, rows_per_table=2000, rows_per_value=40, seed=11, sampling_ratio=0.25
    )


def ott_template(name="ott_tpl"):
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


class TestServingLayers:
    def test_source_lifecycle(self, service_ott_db):
        with QueryService(service_ott_db) as service:
            prepared = service.prepare(ott_template())
            first = service.execute(prepared, [0, 0, 0])
            assert first.source == "fresh"
            repeat = service.execute(prepared, [0, 0, 0])
            assert repeat.source == "result_cache"
            assert repeat.execution.num_rows == first.execution.num_rows
            same_template = service.execute(prepared, [2, 2, 2])
            assert same_template.source in ("validated_reuse", "replan")
            assert service.stats.queries == 3
            assert service.stats.fresh_plans == 1
            assert service.stats.result_cache_hits == 1

    def test_result_cache_distinguishes_bindings(self, service_ott_db):
        with QueryService(service_ott_db) as service:
            prepared = service.prepare(ott_template())
            equal = service.execute(prepared, [0, 0, 0])
            different = service.execute(prepared, [0, 0, 3])
            assert equal.execution.columns["n"][0] > 0
            assert different.execution.columns["n"][0] == 0

    def test_raw_sql_and_builder_share_plan_cache(self, service_ott_db):
        with QueryService(service_ott_db) as service:
            service.execute(ott_template(), [0, 0, 0])
            sql = (
                "SELECT count(*) AS n FROM r1, r2, r3 "
                "WHERE r1.a = ? AND r2.a = ? AND r3.a = ? "
                "AND r1.b = r2.b AND r2.b = r3.b"
            )
            result = service.execute(sql, [0, 0, 0])
            assert result.source == "result_cache"
            assert service.plan_cache_size() == 1

    def test_plan_cache_disabled_plans_every_time(self, service_ott_db):
        settings = ServiceSettings(use_plan_cache=False, use_result_cache=False)
        with QueryService(service_ott_db, settings=settings) as service:
            prepared = service.prepare(ott_template())
            assert service.execute(prepared, [0, 0, 0]).source == "fresh"
            assert service.execute(prepared, [0, 0, 0]).source == "fresh"
            assert service.stats.fresh_plans == 2


class TestDriftGuard:
    def test_drift_injection_rejects_stale_plan(self, service_ott_db, monkeypatch):
        """The paper's validator as a plan-cache guard: a binding whose
        sampled cardinalities collapse must evict the cached plan, while a
        cache that never replans (``DRIFT_THRESHOLD = inf``) executes it."""
        guarded = QueryService(service_ott_db)
        prepared = guarded.prepare(ott_template())
        warm = guarded.execute(prepared, [0, 0, 0])
        assert warm.source == "fresh"
        cached_plan = guarded._plan_cache[prepared.fingerprint].plan

        # Drift injection: same template, but the third constant differs, so
        # the join result is empty — orders of magnitude off the cached
        # plan's Γ expectations.
        drifted = guarded.execute(prepared, [0, 0, 1])
        assert drifted.source == "replan"
        assert drifted.drift is not None and drifted.drift > cache_module.DRIFT_THRESHOLD
        assert guarded.stats.drift_replans == 1
        guarded.close()

        # With an infinite threshold the same drift is observed and ignored:
        # the stale plan is executed, as in a classical unguarded plan cache.
        monkeypatch.setattr(cache_module, "DRIFT_THRESHOLD", float("inf"))
        unguarded = QueryService(
            service_ott_db, settings=ServiceSettings(use_result_cache=False)
        )
        unguarded.execute(prepared, [0, 0, 0])
        stale = unguarded.execute(prepared, [0, 0, 1])
        assert stale.source == "validated_reuse"
        assert stale.drift == drifted.drift
        cached = unguarded._plan_cache[prepared.fingerprint].plan
        # The reuse keeps the stale join structure (rebound constants).
        assert [n.relations for n in stale.plan.join_nodes()] == [
            n.relations for n in cached.join_nodes()
        ]
        assert unguarded.stats.drift_replans == 0
        assert unguarded.stats.validated_reuses == 1
        unguarded.close()

        # Both answer correctly (any plan is correct); the guard is about
        # not *executing through* a plan whose cardinality assumptions broke.
        assert drifted.execution.columns["n"][0] == stale.execution.columns["n"][0] == 0
        assert not plans_identical(drifted.plan, cached_plan) or drifted.source == "replan"

    def test_validated_reuse_skips_planning(self, service_ott_db, monkeypatch):
        monkeypatch.setattr(cache_module, "DRIFT_THRESHOLD", 1e9)
        service = QueryService(service_ott_db)
        prepared = service.prepare(ott_template())
        service.execute(prepared, [0, 0, 0])
        reused = service.execute(prepared, [4, 4, 4])
        assert reused.source == "validated_reuse"
        assert reused.trace.planning_s == 0.0
        assert reused.trace.validation_s > 0.0
        assert service.stats.plan_cache_hits == 1
        assert service.stats.validated_reuses == 1 and service.stats.fresh_plans == 1
        service.close()

    def test_fresh_plan_expectations_are_the_sampled_gamma(self, service_ott_db):
        """A template's first plan is Algorithm 1 from an empty Γ, and its
        drift-guard expectations are exactly the Γ that run validated."""
        with QueryService(service_ott_db) as service:
            prepared = service.prepare(ott_template())
            result = service.execute(prepared, [0, 0, 0])
            entry = service._plan_cache[prepared.fingerprint]

        assert result.source == "fresh"
        expected = Reoptimizer(service_ott_db).reoptimize(prepared.bind([0, 0, 0]))
        assert entry.plan.signature() == expected.final_plan.signature()
        assert entry.expectations == dict(expected.gamma.items())

    @pytest.mark.parametrize("binding", [[0, 0, 1], [1, 0, 0], [3, 3, 3]])
    def test_drift_replan_matches_a_from_scratch_reoptimization(
        self, service_ott_db, monkeypatch, binding
    ):
        """A drift replan is Algorithm 1 from scratch under the fresh Δ:
        same plan, same cost bits, same Γ — nothing of the template's earlier
        planning survives into it."""
        monkeypatch.setattr(cache_module, "DRIFT_THRESHOLD", 1.0)
        settings = ServiceSettings(use_result_cache=False)
        with QueryService(service_ott_db, settings=settings) as service:
            prepared = service.prepare(ott_template())
            service.execute(prepared, [0, 0, 0])
            entry = service._plan_cache[prepared.fingerprint]
            bound = prepared.bind(binding)
            validation = validate_plan_for_bindings(
                service_ott_db, bound, rebind_plan(entry.plan, bound)
            )

            replanned = service.execute(prepared, binding)

        assert replanned.source == "replan"
        gamma = Gamma()
        gamma.merge(validation.cardinalities)
        expected = Reoptimizer(service_ott_db).reoptimize(bound, gamma=gamma)
        assert replanned.plan.signature() == expected.final_plan.signature()
        assert replanned.plan.estimated_cost.hex() == expected.final_plan.estimated_cost.hex()
        assert entry.plan is replanned.plan
        assert entry.expectations == dict(expected.gamma.items())


class TestEpochInvalidation:
    def _tiny_db(self):
        db = generate_ott_database(
            num_tables=3, rows_per_table=600, rows_per_value=30, seed=3, sampling_ratio=0.3
        )
        return db

    def test_epoch_bump_invalidates_result_cache(self):
        db = self._tiny_db()
        with QueryService(db) as service:
            template = (
                QueryBuilder("single")
                .table("r1")
                .filter_param("r1", "a", "=")
                .aggregate("count", output_name="n")
                .build()
            )
            first = service.execute(template, [0])
            assert service.execute(template, [0]).source == "result_cache"

            # Replace r1 with a table holding twice the rows for value 0.
            old = db.table("r1")
            doubled = np.concatenate([old.column("a"), np.zeros(50, dtype=np.int64)])
            db.create_table(
                Table(
                    TableSchema("r1", (Column("a", "int"), Column("b", "int"))),
                    {"a": doubled, "b": doubled.copy()},
                ),
                replace=True,
            )
            db.create_index("r1", "a")
            db.analyze()
            db.create_samples(ratio=0.3, seed=9)

            refreshed = service.execute(template, [0])
            assert refreshed.source != "result_cache"
            assert refreshed.execution.columns["n"][0] == first.execution.columns["n"][0] + 50

    @pytest.mark.parametrize(
        "make_service,executed_source,reexecuted_source",
        [
            (QueryService, "fresh", "validated_reuse"),
            (
                lambda db: ShardedQueryService(
                    db, num_shards=2, spec=ShardingSpec(partitioned={"r1": "b"})
                ),
                "scatter_partial",
                "scatter_partial",
            ),
        ],
        ids=["single", "sharded"],
    )
    def test_invalidate_table_sweeps_and_bumps(
        self, make_service, executed_source, reexecuted_source
    ):
        db = self._tiny_db()
        with make_service(db) as service:
            template = (
                QueryBuilder("single")
                .table("r1")
                .filter_param("r1", "a", "=")
                .aggregate("count", output_name="n")
                .build()
            )
            first = service.execute(template, [0])
            assert first.source == executed_source
            service.execute(template, [1])
            assert service.execute(template, [0]).source == "result_cache"
            assert len(service.result_cache) == 2
            before = service._epoch_snapshot(service.prepare(template))
            swept = service.invalidate_table("r1")
            assert swept == 2
            assert service.result_cache_stats().invalidations == 2
            assert len(service.result_cache) == 0
            # Every catalog the service reads moved to a newer epoch.
            after = service._epoch_snapshot(service.prepare(template))
            assert len(after) == len(before)
            assert all(new > old for (_, old), (_, new) in zip(before, after))
            again = service.execute(template, [0])
            assert again.source == reexecuted_source
            assert np.array_equal(
                first.execution.columns["n"], again.execution.columns["n"]
            )

    def test_cached_template_survives_table_replace(self):
        """Replacing a table re-samples it in place; the next execution of a
        cached template validates against the new sample and sees the new
        data."""
        db = self._tiny_db()
        with QueryService(db) as service:
            template = (
                QueryBuilder("joined")
                .table("r1").table("r2")
                .filter_param("r1", "a", "=")
                .filter_param("r2", "a", "=")
                .join("r1", "b", "r2", "b")
                .aggregate("count", output_name="n")
                .build()
            )
            before = service.execute(template, [0, 0])
            old = db.table("r1")
            extra = np.zeros(40, dtype=np.int64)
            grown = np.concatenate([old.column("a"), extra])
            db.create_table(
                Table(
                    TableSchema("r1", (Column("a", "int"), Column("b", "int"))),
                    {"a": grown, "b": grown.copy()},
                ),
                replace=True,
            )
            db.create_index("r1", "a")
            db.analyze()
            assert db.samples.base_row_counts["r1"] == len(grown)
            after = service.execute(template, [0, 0])
            assert after.source != "result_cache"
            assert after.execution.columns["n"][0] > before.execution.columns["n"][0]

    def test_plan_cache_is_lru_bounded(self, monkeypatch):
        db = self._tiny_db()
        monkeypatch.setattr(service_module, "PLAN_CACHE_ENTRIES", 2)
        settings = ServiceSettings(use_result_cache=False)
        with QueryService(db, settings=settings) as service:
            fingerprints = []
            for value in range(4):
                query = (
                    QueryBuilder(f"adhoc{value}")
                    .table("r1")
                    .filter("r1", "a", "=", value)  # constant-only: one template each
                    .aggregate("count", output_name="n")
                    .build()
                )
                fingerprints.append(service.execute(query).statement.fingerprint)
            # Each template's lock lives on its entry, so bounding the
            # entries bounds the locks too: the evicted templates left none.
            assert service.plan_cache_size() == 2
            assert list(service._plan_cache) == fingerprints[2:]

    def test_epoch_snapshot_tracks_changes(self):
        db = self._tiny_db()
        before = db.epoch_snapshot(["r1", "r2"])
        db.bump_table_epoch("r1")
        after = db.epoch_snapshot(["r1", "r2"])
        assert before != after
        assert db.epoch_snapshot(["r2"]) == tuple(
            (name, epoch) for name, epoch in after if name == "r2"
        )


class TestBackpressureAndLifecycle:
    @pytest.mark.parametrize(
        "max_queued, admission_timeout, kind, counted",
        [(0, None, "shed", (1, 0)), (1, 0.02, "timeout", (0, 1))],
        ids=["shed", "timeout"],
    )
    def test_backpressure_counts_rejections(
        self, service_ott_db, admission_bounds, max_queued, admission_timeout, kind, counted
    ):
        """A full queue is a shed, an expired admission deadline a timeout:
        each rejection lands in exactly one of ``(stats.shed,
        stats.timed_out)``."""
        admission_bounds(1, max_queued)
        settings = ServiceSettings(admission_timeout=admission_timeout)
        with QueryService(service_ott_db, settings=settings) as service:
            service.admission.acquire()  # occupy the only slot
            with pytest.raises(BackpressureError) as excinfo:
                service.execute(ott_template(), [0, 0, 0])
            service.admission.release()
            assert excinfo.value.kind == kind
            assert (service.stats.shed, service.stats.timed_out) == counted
            assert service.stats.queries == 0
            ok = service.execute(ott_template(), [0, 0, 0])
            assert ok.source == "fresh"

    def test_a_query_over_the_join_cap_fails_and_the_service_serves_on(
        self, service_ott_db, admission_bounds
    ):
        """A 13-relation query surfaces the planner's ``PlanningError``; it
        caches no plan and gives its admission slot back."""
        builder = QueryBuilder("chain13")
        for index in range(13):
            builder.table(f"r{index % 4 + 1}", f"t{index}")
        for index in range(12):
            builder.join(f"t{index}", "b", f"t{index + 1}", "b")
        builder.aggregate("count", output_name="n")
        admission_bounds(1, 0)
        with QueryService(service_ott_db) as service:
            with pytest.raises(PlanningError, match="13 relations.*at most 12"):
                service.execute(builder.build())
            assert service.plan_cache_size() == 0
            assert service.stats.queries == 0
            ok = service.execute(ott_template(), [0, 0, 0])
            assert ok.source == "fresh"
            assert (service.stats.shed, service.stats.timed_out) == (0, 0)
            assert service.admission.in_flight == 0

    def test_execute_after_close_raises(self, service_ott_db):
        service = QueryService(service_ott_db)
        service.execute(ott_template(), [0, 0, 0])
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.execute(ott_template(), [0, 0, 0])


def test_importing_the_service_does_not_load_the_experiments():
    """Layering: ``repro.service`` sits below ``repro.bench``; a server must
    not pay for (or depend on) the figure drivers at import."""
    code = (
        "import sys, repro.service; "
        "sys.exit('repro.bench.experiments' in sys.modules)"
    )
    completed = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": ":".join(sys.path)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
