"""Tests for the Haas et al. sampling-based estimator."""

import pytest

from repro.cardinality.sampling_estimator import SamplingEstimator
from repro.errors import SamplingError
from repro.executor.executor import Executor
from repro.optimizer.optimizer import Optimizer
from repro.workloads.ott import generate_ott_database, make_ott_query


@pytest.fixture(scope="module")
def db():
    # Seed picked for a representative (not lucky, not pathological) sample
    # draw under the per-table (seed, name)-derived sampling seeds.
    return generate_ott_database(
        num_tables=4, rows_per_table=3000, rows_per_value=50, seed=11, sampling_ratio=0.2
    )


class TestSamplingEstimates:
    def test_requires_samples(self, db):
        query = make_ott_query(db, [0, 0, 0, 0])
        bare = generate_ott_database(
            num_tables=2, rows_per_table=100, seed=1, create_samples=False
        )
        with pytest.raises(SamplingError):
            SamplingEstimator(bare, make_ott_query(bare, [0, 0]))
        # With samples present, construction succeeds.
        SamplingEstimator(db, query)

    def test_detects_empty_join(self, db):
        query = make_ott_query(db, [0, 1, 0, 0])
        estimator = SamplingEstimator(db, query)
        assert estimator.estimate_cardinality({"r1", "r2"}) == 0.0

    def test_nonempty_join_estimate_close_to_truth(self, db):
        query = make_ott_query(db, [0, 0, 0, 0])
        estimator = SamplingEstimator(db, query)
        # B = A in the OTT data, so the true pair-join cardinality is the
        # product of the two selection counts.
        r1_selected = int((db.table("r1").column("a") == 0).sum())
        r2_selected = int((db.table("r2").column("a") == 0).sum())
        pair_actual = r1_selected * r2_selected
        pair_estimate = estimator.estimate_cardinality({"r1", "r2"})
        assert pair_estimate == pytest.approx(pair_actual, rel=0.6)

    def test_selectivity_matches_cardinality_scaling(self, db):
        query = make_ott_query(db, [0, 0, 0, 0])
        estimator = SamplingEstimator(db, query)
        rho = estimator.estimate_selectivity({"r1", "r2"})
        cardinality = estimator.estimate_cardinality({"r1", "r2"})
        assert cardinality == pytest.approx(rho * 3000 * 3000, rel=1e-6)

    def test_estimates_cached(self, db):
        query = make_ott_query(db, [0, 0, 0, 0])
        estimator = SamplingEstimator(db, query)
        first = estimator.estimate_cardinality({"r1", "r2", "r3"})
        second = estimator.estimate_cardinality({"r1", "r2", "r3"})
        assert first == second

    def test_empty_joinset_rejected(self, db):
        estimator = SamplingEstimator(db, make_ott_query(db, [0, 0, 0, 0]))
        with pytest.raises(ValueError):
            estimator.estimate_cardinality(set())


class TestValidatePlan:
    def test_validates_joins_only_by_default(self, db):
        query = make_ott_query(db, [0, 0, 0, 1])
        plan = Optimizer(db).optimize(query)
        validation = SamplingEstimator(db, query).validate_plan(plan)
        assert validation.joins_validated >= 1
        assert all(len(join_set) >= 2 for join_set in validation.cardinalities)
        assert validation.elapsed_seconds >= 0.0

    def test_validates_base_relations_when_asked(self, db):
        query = make_ott_query(db, [0, 0, 0, 1])
        plan = Optimizer(db).optimize(query)
        validation = SamplingEstimator(db, query).validate_plan(
            plan, validate_base_relations=True
        )
        singletons = [s for s in validation.cardinalities if len(s) == 1]
        assert len(singletons) == 4

    def test_full_query_join_set_is_validated(self, db):
        query = make_ott_query(db, [0, 0, 0, 1])
        plan = Optimizer(db).optimize(query)
        validation = SamplingEstimator(db, query).validate_plan(plan)
        full_set = frozenset({"r1", "r2", "r3", "r4"})
        assert full_set in validation.cardinalities
        # The query is empty (constants differ), and sampling sees that.
        assert validation.cardinalities[full_set] == 0.0

    def test_no_sample_support_skips_validation(self, db):
        """A join set with an empty factor sample must not be 'validated'.

        An unlucky draw that misses every row of one relation's selection
        would otherwise poison Γ with spurious empty joins and steer the
        optimizer into catastrophic plans it believes are free.
        """
        query = make_ott_query(db, [0, 0, 0, 0])
        plan = Optimizer(db).optimize(query)
        estimator = SamplingEstimator(db, query)
        # Simulate the unlucky draw: make r2's filtered sample empty.
        import numpy as np

        filtered = estimator._filtered_sample("r2")
        estimator._filtered_cache["r2"] = filtered.take(np.empty(0, dtype=np.int64))
        assert not estimator.has_sample_support({"r1", "r2"})
        validation = estimator.validate_plan(plan)
        assert validation.joins_skipped_no_support >= 1
        assert all(
            "r2" not in join_set for join_set in validation.cardinalities
        )
        # Join sets with full support are still validated.
        supported = [s for s in validation.cardinalities if "r2" not in s]
        assert validation.joins_validated == len(supported)

    def test_no_sample_support_skips_base_relation_validation(self, db):
        """The guard applies to singletons too: an empty filtered sample of a
        non-empty selection must not validate the base relation to 0 rows."""
        import numpy as np

        query = make_ott_query(db, [0, 0, 0, 0])
        plan = Optimizer(db).optimize(query)
        estimator = SamplingEstimator(db, query)
        filtered = estimator._filtered_sample("r2")
        estimator._filtered_cache["r2"] = filtered.take(np.empty(0, dtype=np.int64))
        validation = estimator.validate_plan(plan, validate_base_relations=True)
        assert frozenset({"r2"}) not in validation.cardinalities
        assert frozenset({"r1"}) in validation.cardinalities


class TestPrefixCache:
    def test_validate_plan_reuses_sub_joins(self, db):
        query = make_ott_query(db, [0, 0, 0, 0])
        plan = Optimizer(db).optimize(query)
        estimator = SamplingEstimator(db, query)
        first = estimator.validate_plan(plan)
        assert first.joins_validated >= 2
        # Every join set beyond the first extends a cached sub-join.
        assert first.prefix_cache_hits >= first.joins_validated - 1
        assert first.sample_join_row_ops > 0
        # A second round over the same plan does no sample-join work at all.
        second = estimator.validate_plan(plan)
        assert second.sample_join_row_ops == 0

    def test_selectivity_and_cardinality_share_join_count(self, db):
        query = make_ott_query(db, [0, 0, 0, 0])
        estimator = SamplingEstimator(db, query)
        estimator.estimate_selectivity({"r1", "r2"})
        row_ops = estimator.sample_join_row_ops
        # The cardinality estimate for the same join set reuses the count.
        estimator.estimate_cardinality({"r1", "r2"})
        assert estimator.sample_join_row_ops == row_ops

    def test_cached_estimates_are_consistent(self, db):
        query = make_ott_query(db, [0, 0, 0, 0])
        cold = SamplingEstimator(db, query)
        warm = SamplingEstimator(db, query)
        warm.validate_plan(Optimizer(db).optimize(query))
        for aliases in ({"r1", "r2"}, {"r1", "r2", "r3"}, {"r1", "r2", "r3", "r4"}):
            assert cold.estimate_cardinality(aliases) == warm.estimate_cardinality(aliases)

    def test_cache_keys_track_sample_content(self):
        """The caches key on ``Relation.fingerprint``: equal content gives an
        equal key, one changed value a different one."""
        import numpy as np

        from repro.relalg import Relation

        base = Relation({"t.a": np.arange(100), "t.b": np.arange(100) * 2.0})
        same = Relation({"t.a": np.arange(100), "t.b": np.arange(100) * 2.0})
        assert base.fingerprint() == same.fingerprint()
        changed = Relation({"t.a": np.arange(100), "t.b": np.arange(100) * 2.0})
        changed["t.b"][50] += 1.0
        assert base.fingerprint() != changed.fingerprint()
        assert base.fingerprint() != base.project(["t.a"]).fingerprint()
