"""Unit tests for local-predicate and join selectivity estimation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cardinality.join_estimation import equijoin_selectivity
from repro.cardinality.selectivity import (
    conjunction_selectivity,
    equality_selectivity,
    inequality_selectivity,
    local_predicate_selectivity,
)
from repro.sql.ast import LocalPredicate
from repro.stats.analyze import analyze_column


def stats_for(values):
    return analyze_column(np.asarray(values), "a", is_numeric=True)


class TestEqualitySelectivity:
    def test_no_statistics_uses_default(self):
        assert equality_selectivity(None, 5) == pytest.approx(0.005)

    def test_mcv_value_uses_exact_frequency(self):
        stats = stats_for(np.repeat(np.arange(10), [50, 10, 10, 10, 5, 5, 4, 3, 2, 1]))
        assert equality_selectivity(stats, 0) == pytest.approx(0.5)

    def test_non_mcv_value_uses_uniform_remainder(self):
        values = np.concatenate([np.full(900, 1), np.arange(100, 200)])
        # 101 distinct values: only the 900-row value clears the MCV cut.
        stats = stats_for(values)
        assert stats.mcv_values == [1]
        selectivity = equality_selectivity(stats, 150)
        assert selectivity == pytest.approx(0.1 / 100, rel=0.2)

    def test_unseen_value_with_complete_mcvs(self):
        stats = stats_for(np.repeat(np.arange(5), 20))
        assert equality_selectivity(stats, 99) < 1e-6

    @given(st.integers(min_value=0, max_value=49))
    @settings(max_examples=20, deadline=None)
    def test_uniform_column_estimates_are_exact(self, value):
        stats = stats_for(np.repeat(np.arange(50), 10))
        assert equality_selectivity(stats, value) == pytest.approx(1.0 / 50)


class TestInequalitySelectivity:
    def test_no_statistics_default(self):
        assert inequality_selectivity(None, "<", 5) == pytest.approx(1 / 3)

    def test_uniform_range_fractions(self):
        stats = stats_for(np.arange(1000))
        assert inequality_selectivity(stats, "<", 250) == pytest.approx(0.25, abs=0.05)
        assert inequality_selectivity(stats, ">=", 750) == pytest.approx(0.25, abs=0.05)

    def test_out_of_range_values(self):
        stats = stats_for(np.arange(1000))
        assert inequality_selectivity(stats, "<", -5) <= 0.01
        assert inequality_selectivity(stats, "<=", 5000) >= 0.99

    def test_non_numeric_value_falls_back(self):
        stats = stats_for(np.arange(100))
        assert inequality_selectivity(stats, "<", "abc") == pytest.approx(1 / 3)


class TestPredicateDispatchAndConjunction:
    def test_dispatch(self):
        stats = stats_for(np.repeat(np.arange(10), 10))
        eq = local_predicate_selectivity(stats, LocalPredicate("t", "a", "=", 3))
        ne = local_predicate_selectivity(stats, LocalPredicate("t", "a", "<>", 3))
        lt = local_predicate_selectivity(stats, LocalPredicate("t", "a", "<", 5))
        assert eq == pytest.approx(0.1)
        assert ne == pytest.approx(0.9)
        assert 0.3 < lt < 0.7

    def test_conjunction_is_product(self):
        assert conjunction_selectivity([0.5, 0.2]) == pytest.approx(0.1)
        assert conjunction_selectivity([]) == 1.0

    def test_conjunction_clamped(self):
        assert conjunction_selectivity([1e-20, 1e-20]) >= 1e-9
        assert conjunction_selectivity([2.0]) == 1.0

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_conjunction_within_bounds(self, selectivities):
        result = conjunction_selectivity(selectivities)
        assert 0.0 < result <= 1.0


class TestEquijoinSelectivity:
    def test_no_statistics_default(self):
        assert equijoin_selectivity(None, None) == pytest.approx(0.005)

    def test_one_sided_statistics(self):
        stats = stats_for(np.repeat(np.arange(20), 5))
        assert equijoin_selectivity(stats, None) == pytest.approx(1 / 20)

    def test_uniform_key_join_matches_system_r(self):
        # More distinct values than the MCV target, all equally common: no
        # MCVs on either side, so only n_distinct is left to estimate with.
        left = stats_for(np.repeat(np.arange(1000), 10))
        right = stats_for(np.repeat(np.arange(500), 10))
        assert left.num_mcvs == right.num_mcvs == 0
        assert equijoin_selectivity(left, right) == pytest.approx(1 / 1000, rel=0.1)

    def test_mcv_join_refinement_on_skewed_data(self):
        # 90% of both sides share one hot value: the true join selectivity is
        # dominated by that value and far exceeds 1/n_distinct.
        left = stats_for(np.concatenate([np.full(900, 1), np.arange(2, 102)]))
        right = stats_for(np.concatenate([np.full(900, 1), np.arange(200, 300)]))
        selectivity = equijoin_selectivity(left, right)
        assert selectivity == pytest.approx(0.81, rel=0.1)

    def test_disjoint_complete_mcvs_give_near_zero(self):
        left = stats_for(np.repeat(np.arange(0, 10), 10))
        right = stats_for(np.repeat(np.arange(100, 110), 10))
        assert equijoin_selectivity(left, right) < 1e-6

    def test_selectivity_symmetric(self):
        left = stats_for(np.repeat(np.arange(30), 3))
        right = stats_for(np.repeat(np.arange(60), 2))
        assert equijoin_selectivity(left, right) == pytest.approx(
            equijoin_selectivity(right, left)
        )
