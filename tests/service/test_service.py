"""QueryService: serving layers, drift guard, epochs, lifecycle."""

from __future__ import annotations

import subprocess
import sys

import numpy as np
import pytest

from repro.plans.join_tree import plans_identical
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
            assert repeat.num_rows == first.num_rows
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
    def test_drift_injection_rejects_stale_plan(self, service_ott_db):
        """The paper's validator as a plan-cache guard: a binding whose
        sampled cardinalities collapse must evict the cached plan, while a
        cache that never replans (``drift_threshold=inf``) executes it."""
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
        assert drifted.drift is not None and drifted.drift > guarded.settings.drift_threshold
        assert guarded.stats.drift_replans == 1
        guarded.close()

        # With an infinite threshold the same drift is observed and ignored:
        # the stale plan is executed, as in a classical unguarded plan cache.
        unguarded = QueryService(
            service_ott_db,
            settings=ServiceSettings(drift_threshold=float("inf"), use_result_cache=False),
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

    def test_validated_reuse_skips_planning(self, service_ott_db):
        service = QueryService(
            service_ott_db, settings=ServiceSettings(drift_threshold=1e9)
        )
        prepared = service.prepare(ott_template())
        service.execute(prepared, [0, 0, 0])
        reused = service.execute(prepared, [4, 4, 4])
        assert reused.source == "validated_reuse"
        assert reused.planning_seconds == 0.0
        assert reused.validation_seconds >= 0.0
        entry = service._plan_cache[prepared.fingerprint]
        assert entry.validations == 1 and entry.reuses == 1
        service.close()


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
            db.analyze(["r1"])
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
        """Replacing a table drops db.samples; the next execution of a cached
        template must recreate them (and see the new data), not raise
        SamplingError."""
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
            db.analyze(["r1"])
            assert db.samples is None
            after = service.execute(template, [0, 0])
            assert after.source != "result_cache"
            assert db.samples is not None
            assert after.execution.columns["n"][0] > before.execution.columns["n"][0]

    def test_plan_cache_is_lru_bounded(self):
        db = self._tiny_db()
        settings = ServiceSettings(plan_cache_entries=2, use_result_cache=False)
        with QueryService(db, settings=settings) as service:
            for value in range(4):
                query = (
                    QueryBuilder(f"adhoc{value}")
                    .table("r1")
                    .filter("r1", "a", "=", value)  # constant-only: one template each
                    .aggregate("count", output_name="n")
                    .build()
                )
                service.execute(query)
            assert service.plan_cache_size() == 2
            assert len(service._template_locks) == 2

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
    def test_backpressure_counts_rejections(self, service_ott_db):
        settings = ServiceSettings(max_concurrent=1, max_queued=0)
        with QueryService(service_ott_db, settings=settings) as service:
            service.admission.acquire("hog")  # occupy the only slot
            with pytest.raises(BackpressureError):
                service.execute(ott_template(), [0, 0, 0], client="victim")
            service.admission.release()
            assert service.stats.rejected == 1
            assert service.admission_stats().shed == 1
            ok = service.execute(ott_template(), [0, 0, 0], client="victim")
            assert ok.source == "fresh"

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
