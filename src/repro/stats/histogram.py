"""Equi-depth histograms over numeric columns.

PostgreSQL keeps, per column, an equal-depth histogram of the values that are
*not* in the most-common-value list (Section 4.2.1 of the paper).  The
histogram stores ``num_buckets + 1`` bound values such that each bucket holds
(approximately) the same number of rows; range selectivities are estimated by
linear interpolation inside the boundary buckets, which is the classic
System-R/PostgreSQL approach.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class EquiDepthHistogram:
    """An equal-depth histogram described by its bucket bounds.

    ``bounds`` has length ``num_buckets + 1``; bucket ``i`` covers
    ``[bounds[i], bounds[i + 1])`` (the last bucket is closed on both sides).
    Each bucket is assumed to hold ``1 / num_buckets`` of the rows the
    histogram describes.
    """

    bounds: np.ndarray

    @classmethod
    def from_values(cls, values: np.ndarray, num_buckets: int = 100) -> Optional["EquiDepthHistogram"]:
        """Build a histogram from raw values, or return None if degenerate.

        Degenerate cases (fewer than two distinct values, or not enough values
        to fill two buckets) return ``None`` — matching PostgreSQL, which does
        not store a histogram when the MCV list already covers the column.
        """
        values = np.asarray(values, dtype=np.float64)
        values = values[~np.isnan(values)] if values.dtype.kind == "f" else values
        if len(values) < 2:
            return None
        if np.min(values) == np.max(values):
            return None
        num_buckets = max(1, min(num_buckets, len(values)))
        quantiles = np.linspace(0.0, 1.0, num_buckets + 1)
        # Pre-sorted, quantile picks the same elements without partitioning.
        bounds = np.quantile(np.sort(values), quantiles)
        return cls(bounds=np.asarray(bounds, dtype=np.float64))

    @property
    def num_buckets(self) -> int:
        """Number of buckets in the histogram."""
        return len(self.bounds) - 1

    def fraction_below(self, value: float, inclusive: bool = False) -> float:
        """Estimate the fraction of rows with column value ``< value`` (or ``<=``).

        The estimate interpolates linearly within the bucket containing
        ``value``, mirroring PostgreSQL's ``ineq_histogram_selectivity``.
        The ``inclusive`` flag only matters at exact bucket bounds and is
        handled approximately (histograms cannot resolve point masses).
        """
        bounds = self.bounds
        if value < bounds[0]:
            return 0.0
        if value > bounds[-1]:
            return 1.0
        if value == bounds[-1]:
            return 1.0 if inclusive else 1.0 - 1e-9
        # Find the bucket containing the value.
        bucket = int(np.searchsorted(bounds, value, side="right")) - 1
        bucket = min(max(bucket, 0), self.num_buckets - 1)
        bucket_low = bounds[bucket]
        bucket_high = bounds[bucket + 1]
        if bucket_high == bucket_low:
            within = 1.0 if inclusive else 0.0
        else:
            within = (value - bucket_low) / (bucket_high - bucket_low)
        return (bucket + within) / self.num_buckets
