"""Tests for the histogram/AVI cardinality estimator and Γ overrides."""

import pytest

from repro.cardinality.estimator import CardinalityEstimator
from repro.cardinality.gamma import Gamma
from repro.sql.builder import QueryBuilder
from repro.workloads.ott import generate_ott_database, make_ott_query


@pytest.fixture(scope="module")
def db():
    return generate_ott_database(
        num_tables=3, rows_per_table=2000, rows_per_value=100, seed=1, create_samples=False
    )


@pytest.fixture
def query(db):
    return make_ott_query(db, [0, 0, 1])


class TestBaseCardinality:
    def test_no_predicates_returns_table_rows(self, db):
        query = QueryBuilder("q").table("r1").table("r2").join("r1", "b", "r2", "b").build()
        estimator = CardinalityEstimator(db, query)
        assert estimator.base_cardinality("r1") == pytest.approx(2000.0)

    def test_equality_selection_estimate(self, db, query):
        estimator = CardinalityEstimator(db, query)
        # 2000 rows over 20 distinct values -> about 100 rows per value.
        assert estimator.base_cardinality("r1") == pytest.approx(100.0, rel=0.3)

    def test_gamma_override_for_base(self, db, query):
        gamma = Gamma()
        gamma.record({"r1"}, 7.0)
        estimator = CardinalityEstimator(db, query, gamma)
        assert estimator.base_cardinality("r1") == 7.0


class TestJoinCardinality:
    def test_avi_underestimates_correlated_join(self, db, query):
        """The OTT trap: the AVI estimate is orders of magnitude below the truth."""
        estimator = CardinalityEstimator(db, query)
        estimate = estimator.joinset_cardinality({"r1", "r2"})
        # True size of the matching pair join is ~100 * 100 = 10,000.
        assert estimate < 1500

    def test_same_estimate_for_empty_and_nonempty(self, db):
        """Equation 3's consequence: the optimizer cannot tell the two apart."""
        empty = make_ott_query(db, [0, 1, 0], name="empty")
        nonempty = make_ott_query(db, [0, 0, 0], name="nonempty")
        empty_estimate = CardinalityEstimator(db, empty).joinset_cardinality({"r1", "r2", "r3"})
        nonempty_estimate = CardinalityEstimator(db, nonempty).joinset_cardinality(
            {"r1", "r2", "r3"}
        )
        assert empty_estimate == pytest.approx(nonempty_estimate, rel=0.3)

    def test_gamma_override_for_join(self, db, query):
        gamma = Gamma()
        gamma.record({"r1", "r2"}, 10_000.0)
        estimator = CardinalityEstimator(db, query, gamma)
        assert estimator.joinset_cardinality({"r1", "r2"}) == 10_000.0
        # Join sets not in Gamma still use the histogram estimate.
        assert estimator.joinset_cardinality({"r2", "r3"}) < 1500

    def test_empty_joinset_rejected(self, db, query):
        estimator = CardinalityEstimator(db, query)
        with pytest.raises(ValueError):
            estimator.joinset_cardinality(set())

    def test_gamma_entry_recorded_after_caching_takes_effect(self, db, query):
        """Γ is consulted before the estimate cache, so an entry recorded
        after the first lookup wins without any cache invalidation."""
        estimator = CardinalityEstimator(db, query)
        before = estimator.joinset_cardinality({"r1", "r2"})
        estimator.gamma.record({"r1", "r2"}, 42.0)
        assert estimator.joinset_cardinality({"r1", "r2"}) == 42.0
        assert before != 42.0

    def test_negative_gamma_entry_clamps_to_zero(self, db, query):
        gamma = Gamma()
        gamma.record({"r1", "r2"}, -3.0)
        estimator = CardinalityEstimator(db, query, gamma)
        assert estimator.joinset_cardinality({"r1", "r2"}) == 0.0

    def test_mcv_refinement_toggle(self, db, query):
        with_mcv = CardinalityEstimator(db, query, use_mcv_join_refinement=True)
        without_mcv = CardinalityEstimator(db, query, use_mcv_join_refinement=False)
        # Both are estimates of the same join; they need not agree exactly but
        # must both be positive and finite.
        assert with_mcv.joinset_cardinality({"r1", "r2"}) > 0
        assert without_mcv.joinset_cardinality({"r1", "r2"}) > 0


class TestGammaScope:
    """A Γ entry overrides the estimate of its own join set only."""

    def test_sampled_entry_overrides_only_its_own_join_set(self, ott_db):
        query = make_ott_query(ott_db, [0, 0, 0, 0], name="ott_sampled")
        gamma = Gamma()
        gamma.record({"r1", "r2"}, 5000.0)
        estimator = CardinalityEstimator(ott_db, query, gamma=gamma)
        baseline = CardinalityEstimator(ott_db, query, gamma=Gamma())
        assert estimator.joinset_cardinality({"r1", "r2"}) == 5000.0
        assert estimator.joinset_cardinality({"r1", "r2", "r3"}) == pytest.approx(
            baseline.joinset_cardinality({"r1", "r2", "r3"})
        )

    def test_disjoint_entries_do_not_combine_into_their_union(self, ott_db):
        query = make_ott_query(ott_db, [0, 0, 0, 0], name="ott_two_entries")
        gamma = Gamma()
        gamma.record({"r1", "r2"}, 700.0)
        gamma.record({"r3", "r4"}, 900.0)
        estimator = CardinalityEstimator(ott_db, query, gamma=gamma)
        baseline = CardinalityEstimator(ott_db, query, gamma=Gamma())
        assert estimator.joinset_cardinality({"r1", "r2", "r3", "r4"}) == pytest.approx(
            baseline.joinset_cardinality({"r1", "r2", "r3", "r4"})
        )

    def test_singleton_entry_rescales_superset_estimates(self, ott_db):
        """A validated base cardinality is the one Γ entry that reaches
        supersets: it replaces the base factor of the AVI product."""
        query = make_ott_query(ott_db, [0, 0, 0, 0], name="ott_singleton")
        baseline = CardinalityEstimator(ott_db, query, gamma=Gamma())
        gamma = Gamma()
        gamma.record({"r1"}, 4 * baseline.base_cardinality("r1"))
        estimator = CardinalityEstimator(ott_db, query, gamma=gamma)
        assert estimator.joinset_cardinality({"r1", "r2"}) == pytest.approx(
            4 * baseline.joinset_cardinality({"r1", "r2"})
        )
