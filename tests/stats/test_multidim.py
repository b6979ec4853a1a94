"""Tests for the 2-D histogram of Example 2 (Section 5.3.1)."""

import numpy as np
import pytest

from repro.stats.multidim import MultiDimHistogram, true_ott_pair_selectivity


@pytest.fixture
def ott_pair(make_rng):
    rng = make_rng(2)
    a1 = rng.integers(0, 100, size=5000)
    a2 = rng.integers(0, 100, size=5000)
    return a1, a1.copy(), a2, a2.copy()


class TestMultiDimHistogram:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            MultiDimHistogram.build(np.arange(5), np.arange(6), 4)

    def test_cell_fractions_sum_to_one(self, ott_pair):
        a1, b1, _, _ = ott_pair
        hist = MultiDimHistogram.build(a1, b1, 50)
        assert hist.cell_fractions.sum() == pytest.approx(1.0)

    def test_example2_estimates_identical_for_empty_and_nonempty(self, ott_pair):
        a1, b1, a2, b2 = ott_pair
        hist1 = MultiDimHistogram.build(a1, b1, 50)
        hist2 = MultiDimHistogram.build(a2, b2, 50)
        empty_estimate = hist1.estimate_ott_pair_selectivity(0, 1, hist2)
        nonempty_estimate = hist1.estimate_ott_pair_selectivity(0, 0, hist2)
        # Example 2's point: the histogram cannot tell them apart.
        assert empty_estimate == pytest.approx(nonempty_estimate, rel=0.35)
        assert empty_estimate > 0.0

    def test_true_selectivities_differ(self, ott_pair):
        a1, b1, a2, b2 = ott_pair
        assert true_ott_pair_selectivity(a1, b1, a2, b2, 0, 1) == 0.0
        assert true_ott_pair_selectivity(a1, b1, a2, b2, 0, 0) > 0.0
