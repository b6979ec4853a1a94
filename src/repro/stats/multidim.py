"""Two-dimensional equi-width histograms (Section 5.3.1, Example 2).

The paper argues that even multidimensional histograms cannot distinguish the
empty from the non-empty OTT joins unless the buckets are fine enough to
retain the exact joint distribution.  This module implements the
2-D equi-width histogram of Example 2 so that the claim can be reproduced
quantitatively: the estimated selectivities of the empty query ``q1`` and the
non-empty query ``q2`` come out identical (``1 / (8 l^2)`` with the paper's
parameters), while the true selectivities differ by orders of magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class MultiDimHistogram:
    """An equi-width 2-D histogram over a pair of integer columns.

    Each dimension is divided into ``buckets_per_dim`` equal-width intervals
    over ``[low, high]``; each cell stores the fraction of rows falling in it.
    Within a cell, values are assumed uniformly and independently distributed
    — the very assumption Example 2 exploits.
    """

    low: float
    high: float
    buckets_per_dim: int
    cell_fractions: np.ndarray  # shape (buckets_per_dim, buckets_per_dim)

    @classmethod
    def build(cls, first: np.ndarray, second: np.ndarray, buckets_per_dim: int) -> "MultiDimHistogram":
        """Build the histogram from two aligned columns of one table."""
        first = np.asarray(first, dtype=np.float64)
        second = np.asarray(second, dtype=np.float64)
        if len(first) != len(second):
            raise ValueError("both columns must have the same number of rows")
        low = float(min(first.min(), second.min()))
        high = float(max(first.max(), second.max())) + 1e-9
        edges = np.linspace(low, high, buckets_per_dim + 1)
        counts, _, _ = np.histogram2d(first, second, bins=(edges, edges))
        fractions = counts / max(1, len(first))
        return cls(low=low, high=high, buckets_per_dim=buckets_per_dim, cell_fractions=fractions)

    def _bucket_of(self, value: float) -> int:
        width = (self.high - self.low) / self.buckets_per_dim
        bucket = int((value - self.low) / width)
        return min(max(bucket, 0), self.buckets_per_dim - 1)

    def selection_fraction(self, a_value: float) -> float:
        """Estimated fraction of rows with ``A = a_value`` (marginalised over B)."""
        row = self.cell_fractions[self._bucket_of(a_value), :]
        width = (self.high - self.low) / self.buckets_per_dim
        distinct_per_dim = max(1.0, np.floor(width))
        return float(row.sum()) / distinct_per_dim

    def estimate_ott_pair_selectivity(
        self, a1_value: float, a2_value: float, other: "MultiDimHistogram"
    ) -> float:
        """Estimate the selectivity of ``sigma_{A1=a1, A2=a2, B1=B2}(R1 x R2)``.

        This is Example 2's computation: for each value ``v`` of the join
        attribute, multiply the estimated fractions of ``(A1=a1, B1=v)`` in R1
        and ``(A2=a2, B2=v)`` in R2, then sum over ``v``.  Because the
        histogram spreads each cell uniformly, the result is identical for the
        empty (``a1 != a2``) and non-empty (``a1 == a2``) OTT queries.
        """
        width = (self.high - self.low) / self.buckets_per_dim
        distinct_per_dim = max(1.0, np.floor(width))
        total = 0.0
        for b_bucket in range(self.buckets_per_dim):
            own = self.cell_fractions[self._bucket_of(a1_value), b_bucket] / (
                distinct_per_dim * distinct_per_dim
            )
            theirs = other.cell_fractions[other._bucket_of(a2_value), b_bucket] / (
                distinct_per_dim * distinct_per_dim
            )
            # Sum over the distinct join values inside the bucket.
            total += distinct_per_dim * own * theirs
        return total


def true_ott_pair_selectivity(
    r1_a: np.ndarray, r1_b: np.ndarray, r2_a: np.ndarray, r2_b: np.ndarray,
    a1_value: float, a2_value: float,
) -> float:
    """Exact selectivity of ``sigma_{A1=a1, A2=a2, B1=B2}(R1 x R2)`` for comparison."""
    r1_rows = r1_b[np.asarray(r1_a) == a1_value]
    r2_rows = r2_b[np.asarray(r2_a) == a2_value]
    if len(r1_rows) == 0 or len(r2_rows) == 0:
        return 0.0
    values, counts1 = np.unique(r1_rows, return_counts=True)
    values2, counts2 = np.unique(r2_rows, return_counts=True)
    matches = 0
    lookup = dict(zip(values2.tolist(), counts2.tolist()))
    for value, count in zip(values.tolist(), counts1.tolist()):
        matches += count * lookup.get(value, 0)
    return matches / (len(r1_a) * len(r2_a))
