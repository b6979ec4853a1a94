"""Property-based tests for the theory module and the paper's theorems."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.theory.ball_queue import expected_steps, simulate_procedure1
from repro.theory.special_cases import (
    overestimation_only_bound,
    underestimation_only_expected_steps,
)


class TestExpectedSteps:
    def test_invalid_n_rejected(self):
        with pytest.raises(ValueError):
            expected_steps(0)

    def test_small_cases_by_hand(self):
        # Equation 1 by hand: for N=1 the single summand is 1 * 1 * (1/1) = 1.
        assert expected_steps(1) == pytest.approx(1.0)
        # N=2: S_2 = 1 * 1 * (1/2) + 2 * (1 - 1/2) * (2/2) = 1.5.
        assert expected_steps(2) == pytest.approx(1.5)

    def test_monotone_in_n(self):
        values = [expected_steps(n) for n in range(1, 200, 10)]
        assert values == sorted(values)

    @given(st.integers(min_value=1, max_value=2000))
    @settings(max_examples=50, deadline=None)
    def test_theorem3_sqrt_bound(self, n):
        assert expected_steps(n) <= 2.0 * math.sqrt(n) + 1e-9

    @given(st.integers(min_value=4, max_value=2000))
    @settings(max_examples=50, deadline=None)
    def test_lower_envelope(self, n):
        """Figure 3: S_N stays above sqrt(N) (for N beyond the first few points)."""
        assert expected_steps(n) >= math.sqrt(n) * 0.95

    def test_monte_carlo_agrees_with_closed_form(self):
        for n in (5, 20, 100):
            simulated = simulate_procedure1(n, trials=4000, seed=1)
            assert simulated == pytest.approx(expected_steps(n), rel=0.1)

    def test_simulation_invalid_n(self):
        with pytest.raises(ValueError):
            simulate_procedure1(0)


class TestSpecialCaseBounds:
    def test_overestimation_bound(self):
        assert overestimation_only_bound(0) == 1
        assert overestimation_only_bound(4) == 5
        with pytest.raises(ValueError):
            overestimation_only_bound(-1)

    def test_underestimation_bound_smaller_than_general(self):
        n, m = 1000, 10
        assert underestimation_only_expected_steps(n, m) < expected_steps(n)

    def test_underestimation_bound_paper_example(self):
        """The paper's example: N=1000, M=10 gives S_N ~ 39 but S_{N/M} ~ 12."""
        assert expected_steps(1000) == pytest.approx(39.0, abs=2.0)
        assert underestimation_only_expected_steps(1000, 10) == pytest.approx(12.0, abs=2.0)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            underestimation_only_expected_steps(0, 1)
        with pytest.raises(ValueError):
            underestimation_only_expected_steps(10, 0)

    @given(
        trees=st.integers(min_value=1, max_value=5000),
        edges=st.integers(min_value=1, max_value=50),
    )
    @settings(max_examples=50, deadline=None)
    def test_underestimation_bound_never_exceeds_general_case(self, trees, edges):
        assert underestimation_only_expected_steps(trees, edges) <= expected_steps(trees) + 1e-9
