"""The ANALYZE command: collect per-column statistics for the optimizer.

``analyze(db)`` scans every table in full and produces a
:class:`repro.stats.statistics.TableStatistics` per table containing, for
each column:

* the number of distinct values,
* a most-common-value (MCV) list with frequencies,
* an equal-depth histogram over the non-MCV values (numeric columns).

The limits (100 MCVs, 100 histogram buckets) match PostgreSQL's default
``default_statistics_target``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.relalg.encoding import ColumnData, stable_order, value_counts
from repro.stats.histogram import EquiDepthHistogram
from repro.stats.statistics import ColumnStatistics, TableStatistics
from repro.storage.table import Table

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.storage.catalog import Database

#: Number of most-common values kept per column.
DEFAULT_MCV_TARGET = 100
#: Number of histogram buckets per numeric column.
DEFAULT_HISTOGRAM_BUCKETS = 100
#: MCV inclusion rule: a value qualifies when its frequency exceeds
#: ``MCV_SELECTIVITY_THRESHOLD`` times the average frequency, mirroring the
#: "more common than average" filter PostgreSQL applies.
MCV_SELECTIVITY_THRESHOLD = 1.25


def analyze_column(values: ColumnData, column_name: str, is_numeric: bool) -> ColumnStatistics:
    """Compute :class:`ColumnStatistics` for one column.

    Accepts either a plain array or a dictionary-encoded string column; for
    the latter the distinct-value histogramming runs on the ``int32`` codes
    (one ``bincount``) instead of an object-array ``np.unique`` pass.
    """
    num_rows = len(values)
    if num_rows == 0:
        return ColumnStatistics(
            column=column_name,
            num_rows=0,
            n_distinct=0,
            is_numeric=is_numeric,
        )

    unique_values, counts = value_counts(values)
    n_distinct = len(unique_values)

    # Most common values: keep up to DEFAULT_MCV_TARGET values whose frequency is
    # above the "more common than average" threshold, ordered by frequency.
    order = stable_order(-counts)
    average_count = num_rows / n_distinct
    mcv_values: list = []
    mcv_fractions: list = []
    # A column with few distinct values (<= target) keeps *all* of them in the
    # MCV list, which is what PostgreSQL effectively does and what makes the
    # OTT selections exactly estimable.
    keep_all = n_distinct <= DEFAULT_MCV_TARGET
    for position in order[:DEFAULT_MCV_TARGET]:
        count = counts[position]
        if not keep_all and count < MCV_SELECTIVITY_THRESHOLD * average_count:
            break
        mcv_values.append(unique_values[position].item() if hasattr(unique_values[position], "item") else unique_values[position])
        mcv_fractions.append(count / num_rows)

    histogram = None
    min_value = None
    max_value = None
    if is_numeric:
        numeric = values.astype(np.float64)
        min_value = float(np.min(numeric))
        max_value = float(np.max(numeric))
        # Histogram covers the values not already described by the MCV list.
        if mcv_values:
            mcv_array = np.asarray(mcv_values, dtype=np.float64)
            non_mcv_mask = ~np.isin(numeric, mcv_array)
            non_mcv = numeric[non_mcv_mask]
        else:
            non_mcv = numeric
        histogram = EquiDepthHistogram.from_values(non_mcv, num_buckets=DEFAULT_HISTOGRAM_BUCKETS)

    return ColumnStatistics(
        column=column_name,
        num_rows=num_rows,
        n_distinct=n_distinct,
        mcv_values=mcv_values,
        mcv_fractions=mcv_fractions,
        histogram=histogram,
        min_value=min_value,
        max_value=max_value,
        is_numeric=is_numeric,
    )


def analyze_table(table: Table) -> TableStatistics:
    """Compute statistics for every column of ``table`` over all its rows."""
    statistics = TableStatistics(table=table.name, row_count=table.num_rows)
    for declaration in table.schema.columns:
        statistics.columns[declaration.name] = analyze_column(
            table.data_column(declaration.name),
            column_name=declaration.name,
            is_numeric=declaration.type in ("int", "float"),
        )
    return statistics


def analyze(db: "Database") -> None:
    """Collect statistics for every table of ``db``."""
    for name in db.table_names():
        db.statistics[name] = analyze_table(db.table(name))
