"""Direct unit tests for the ball-queue model (Equation 1, Lemma 1, Theorem 3)."""

import numpy as np
import pytest

from repro.theory.ball_queue import expected_steps, simulate_procedure1


class TestExpectedSteps:
    def test_closed_form_small_n(self):
        # S_1: the single ball is marked once, the next probe terminates.
        assert expected_steps(1) == pytest.approx(1.0)
        # S_2 by hand: 1·1·(1/2) + 2·(1/2)·(2/2) = 1.5
        assert expected_steps(2) == pytest.approx(1.5)
        # S_3 by hand: 1·(1/3) + 2·(2/3)·(2/3) + 3·(2/3)·(1/3)·(3/3) = 17/9
        assert expected_steps(3) == pytest.approx(17.0 / 9.0)

    def test_monotone_in_n(self):
        values = [expected_steps(n) for n in range(1, 60)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_invalid_n_rejected(self):
        with pytest.raises(ValueError):
            expected_steps(0)
        with pytest.raises(ValueError):
            expected_steps(-3)

    def test_theorem3_sqrt_envelope(self):
        # Figure 3's claim: sqrt(N) <= S_N <= 2*sqrt(N) over the plotted range.
        for n in range(1, 501):
            assert expected_steps(n) <= 2.0 * np.sqrt(n) + 1e-9
        for n in (10, 100, 500):
            assert expected_steps(n) >= np.sqrt(n)


class TestSimulation:
    def test_monte_carlo_agrees_with_closed_form(self):
        for n in (1, 2, 5, 20):
            simulated = simulate_procedure1(n, trials=4000, seed=1)
            assert simulated == pytest.approx(expected_steps(n), rel=0.1)

    def test_simulation_is_seeded(self):
        a = simulate_procedure1(10, trials=100, seed=3)
        b = simulate_procedure1(10, trials=100, seed=3)
        assert a == b

    def test_invalid_n_rejected(self):
        with pytest.raises(ValueError):
            simulate_procedure1(0)
