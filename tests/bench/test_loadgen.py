"""Zipf rank weights: skew, normalization and argument checks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.loadgen import zipf_weights


def test_zipf_skew_prefers_low_ranks():
    weights = zipf_weights(5, 1.0)
    assert weights[0] > weights[1] > weights[4]
    assert weights.sum() == pytest.approx(1.0)
    assert np.allclose(weights, (1.0 / np.arange(1, 6)) / (1.0 / np.arange(1, 6)).sum())
    uniform = zipf_weights(5, 0.0)
    assert np.allclose(uniform, 0.2)
    # A larger exponent moves mass from the tail to the head.
    steeper = zipf_weights(5, 1.5)
    assert steeper[0] > weights[0] and steeper[-1] < weights[-1]


@pytest.mark.parametrize("count", [0, -1])
def test_zipf_weights_need_a_positive_count(count):
    with pytest.raises(ValueError, match="count"):
        zipf_weights(count, 1.0)


def test_one_rank_takes_all_the_mass():
    assert zipf_weights(1, 2.0).tolist() == [1.0]


def test_perfbench_draws_from_these_weights():
    """``perfbench`` imports ``zipf_weights`` from this module, not a copy."""
    from perfbench import workloads

    assert workloads.zipf_weights is zipf_weights
