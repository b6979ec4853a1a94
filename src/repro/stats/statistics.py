"""Containers for per-column and per-table optimizer statistics.

The statistics kept per column mirror PostgreSQL's ``pg_stats`` view, which
the paper describes in Section 4.2.1:

* the number of distinct values (``n_distinct``);
* the most common values (MCVs) and their frequencies;
* an equal-depth histogram over the remaining (non-MCV) values.

These are the inputs the histogram-based cardinality estimator in
:mod:`repro.cardinality.selectivity` consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import StatisticsError
from repro.stats.histogram import EquiDepthHistogram


@dataclass
class ColumnStatistics:
    """ANALYZE output for one column."""

    column: str
    #: Number of non-null rows observed when the statistics were collected.
    num_rows: int
    #: Number of distinct non-null values.
    n_distinct: int
    #: Most common values, most frequent first.
    mcv_values: List[object] = field(default_factory=list)
    #: Frequencies (fractions of all rows) aligned with ``mcv_values``.
    mcv_fractions: List[float] = field(default_factory=list)
    #: Equal-depth histogram over non-MCV values (numeric columns only).
    histogram: Optional[EquiDepthHistogram] = None
    #: Minimum / maximum value (numeric columns only).
    min_value: Optional[float] = None
    max_value: Optional[float] = None
    #: Whether the column is numeric (int/float) — string columns only keep
    #: MCVs and n_distinct.
    is_numeric: bool = True

    @property
    def mcv_total_fraction(self) -> float:
        """Sum of the MCV frequencies — the fraction of rows covered by MCVs."""
        return float(sum(self.mcv_fractions))

    @property
    def num_mcvs(self) -> int:
        """Number of values kept in the MCV list."""
        return len(self.mcv_values)

    def mcv_fraction_for(self, value: object) -> Optional[float]:
        """Return the recorded frequency for ``value`` if it is an MCV, else None."""
        for mcv, fraction in zip(self.mcv_values, self.mcv_fractions):
            if mcv == value:
                return fraction
        return None

    def non_mcv_distinct(self) -> int:
        """Number of distinct values not covered by the MCV list (at least 1)."""
        return max(1, self.n_distinct - self.num_mcvs)


@dataclass
class TableStatistics:
    """ANALYZE output for one table: row count plus per-column statistics."""

    table: str
    row_count: int
    columns: Dict[str, ColumnStatistics] = field(default_factory=dict)

    def column(self, name: str) -> ColumnStatistics:
        """Return statistics for ``name``.

        Raises
        ------
        StatisticsError
            If the column was not analyzed.
        """
        if name not in self.columns:
            raise StatisticsError(f"no statistics for column {self.table}.{name}")
        return self.columns[name]

    def has_column(self, name: str) -> bool:
        """True if statistics exist for the column."""
        return name in self.columns
