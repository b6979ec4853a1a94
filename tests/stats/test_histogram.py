"""Direct unit tests for the equi-depth histogram (Section 4.2.1)."""

import numpy as np
import pytest

from repro.stats.histogram import EquiDepthHistogram


class TestConstruction:
    def test_uniform_data_builds_even_buckets(self, make_rng):
        values = make_rng().uniform(0.0, 100.0, size=10_000)
        hist = EquiDepthHistogram.from_values(values, num_buckets=10)
        assert hist is not None
        assert hist.num_buckets == 10
        assert hist.bounds[0] == pytest.approx(values.min())
        assert hist.bounds[-1] == pytest.approx(values.max())
        # Equal depth: each bucket holds ~10% of the rows.
        for i in range(10):
            inside = np.count_nonzero(
                (values >= hist.bounds[i]) & (values < hist.bounds[i + 1])
            )
            assert inside / len(values) == pytest.approx(0.1, abs=0.02)

    def test_degenerate_inputs_return_none(self):
        assert EquiDepthHistogram.from_values(np.array([])) is None
        assert EquiDepthHistogram.from_values(np.array([5.0])) is None
        assert EquiDepthHistogram.from_values(np.full(100, 7.0)) is None

    def test_nan_values_are_dropped(self):
        values = np.array([1.0, np.nan, 2.0, 3.0, np.nan, 4.0])
        hist = EquiDepthHistogram.from_values(values, num_buckets=2)
        assert hist is not None
        assert hist.bounds[0] == 1.0
        assert hist.bounds[-1] == 4.0

    def test_buckets_capped_by_value_count(self):
        hist = EquiDepthHistogram.from_values(np.array([1.0, 2.0, 3.0]), num_buckets=100)
        assert hist is not None
        assert hist.num_buckets <= 3


class TestFractionBelow:
    @pytest.fixture
    def uniform_hist(self, make_rng):
        return EquiDepthHistogram.from_values(
            make_rng().uniform(0.0, 1.0, size=50_000), num_buckets=100
        )

    def test_out_of_range(self, uniform_hist):
        assert uniform_hist.fraction_below(-1.0) == 0.0
        assert uniform_hist.fraction_below(2.0) == 1.0
        assert uniform_hist.fraction_below(uniform_hist.bounds[-1], inclusive=True) == 1.0
        assert uniform_hist.fraction_below(uniform_hist.bounds[-1]) < 1.0

    def test_linear_interpolation_on_uniform_data(self, uniform_hist):
        for point in (0.1, 0.25, 0.5, 0.9):
            assert uniform_hist.fraction_below(point) == pytest.approx(point, abs=0.01)

    def test_monotone(self, uniform_hist):
        points = np.linspace(0.0, 1.0, 50)
        fractions = [uniform_hist.fraction_below(p) for p in points]
        assert all(b >= a for a, b in zip(fractions, fractions[1:]))

    def test_skewed_data_equalizes_depth_not_width(self):
        values = np.concatenate([np.zeros(9_000), np.linspace(1, 100, 1_000)])
        hist = EquiDepthHistogram.from_values(values, num_buckets=10)
        # 90% of the mass sits at 0: the estimate must reflect depth.
        assert hist.fraction_below(0.5, inclusive=True) == pytest.approx(0.9, abs=0.05)
