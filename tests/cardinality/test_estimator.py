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

    def test_join_cardinality_merges_sets(self, db, query):
        estimator = CardinalityEstimator(db, query)
        merged = estimator.join_cardinality({"r1"}, {"r2"})
        assert merged == pytest.approx(estimator.joinset_cardinality({"r1", "r2"}))

    def test_empty_joinset_rejected(self, db, query):
        estimator = CardinalityEstimator(db, query)
        with pytest.raises(ValueError):
            estimator.joinset_cardinality(set())

    def test_invalidate_clears_caches(self, db, query):
        estimator = CardinalityEstimator(db, query)
        before = estimator.joinset_cardinality({"r1", "r2"})
        estimator.gamma.record({"r1", "r2"}, 42.0)
        estimator.invalidate()
        assert estimator.joinset_cardinality({"r1", "r2"}) == 42.0
        assert before != 42.0

    def test_mcv_refinement_toggle(self, db, query):
        with_mcv = CardinalityEstimator(db, query, use_mcv_join_refinement=True)
        without_mcv = CardinalityEstimator(db, query, use_mcv_join_refinement=False)
        # Both are estimates of the same join; they need not agree exactly but
        # must both be positive and finite.
        assert with_mcv.joinset_cardinality({"r1", "r2"}) > 0
        assert without_mcv.joinset_cardinality({"r1", "r2"}) > 0


class TestExactExtrapolation:
    """Exact Γ entries (as the sharded coordinator's gossip records them)
    anchor superset estimates; sampled entries override only their own set."""

    def test_exact_anchor_extrapolates_to_supersets(self, ott_db):
        query = make_ott_query(ott_db, [0, 0, 0, 0], name="ott_extrapolate")
        gamma = Gamma()
        plain = CardinalityEstimator(ott_db, query, gamma=Gamma())
        baseline = plain.joinset_cardinality({"r1", "r2", "r3"})

        gamma.record_exact({"r1", "r2"}, 5000.0)
        anchored = CardinalityEstimator(ott_db, query, gamma=gamma)
        estimate = anchored.joinset_cardinality({"r1", "r2", "r3"})
        # anchored = 5000 * base(r3) * sel(r2.b = r3.b) — far above the AVI
        # product that multiplied the r1⋈r2 mis-estimate in.
        expected = (
            5000.0
            * anchored.base_cardinality("r3")
            * anchored.join_predicate_selectivity(query.join_predicates[1])
        )
        assert estimate == pytest.approx(expected)
        assert estimate > baseline

    def test_sampled_entries_do_not_extrapolate(self, ott_db):
        query = make_ott_query(ott_db, [0, 0, 0, 0], name="ott_sampled")
        gamma = Gamma()
        gamma.record({"r1", "r2"}, 5000.0)  # sampled: exact-set override only
        estimator = CardinalityEstimator(ott_db, query, gamma=gamma)
        baseline = CardinalityEstimator(ott_db, query, gamma=Gamma())
        assert estimator.joinset_cardinality({"r1", "r2"}) == 5000.0
        assert estimator.joinset_cardinality({"r1", "r2", "r3"}) == pytest.approx(
            baseline.joinset_cardinality({"r1", "r2", "r3"})
        )

    def test_disjoint_anchor_and_exact_rest(self, ott_db):
        query = make_ott_query(ott_db, [0, 0, 0, 0], name="ott_two_anchors")
        gamma = Gamma()
        gamma.record_exact({"r1", "r2"}, 700.0)
        gamma.record_exact({"r3", "r4"}, 900.0)
        estimator = CardinalityEstimator(ott_db, query, gamma=gamma)
        estimate = estimator.joinset_cardinality({"r1", "r2", "r3", "r4"})
        expected = (
            700.0 * 900.0
            * estimator.join_predicate_selectivity(query.join_predicates[1])
        )
        assert estimate == pytest.approx(expected)
