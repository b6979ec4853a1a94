"""Zipf rank weights for skewed request mixes.

``perfbench``, the repo's one load driver, draws the ``serve_hot`` request
stream's pair counts from these weights.
"""

from __future__ import annotations

import numpy as np


def zipf_weights(count: int, s: float) -> np.ndarray:
    """Normalized zipf(s) probabilities over ``count`` ranks."""
    if count <= 0:
        raise ValueError("count must be positive")
    ranks = np.arange(1, count + 1, dtype=np.float64)
    weights = 1.0 / np.power(ranks, float(s))
    return weights / weights.sum()
