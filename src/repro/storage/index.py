"""Secondary indexes over table columns.

One index class, :class:`SortedIndex`: the column's ``stable_order`` (one
sort per indexed column) serving equality lookups for index scans and the
batch :meth:`SortedIndex.probe` the index nested-loop join
kernel (:func:`repro.relalg.joins.index_nested_loop_join`) runs on.

Indexes store *row positions* into the base table, so a lookup composes with
:meth:`repro.storage.table.Table.take`.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import CatalogError
from repro.relalg.encoding import stable_order
from repro.storage.table import Table


class SortedIndex:
    """Order-preserving index: equality and batch lookups by binary search."""

    def __init__(self, table: Table, column: str) -> None:
        if not table.has_column(column):
            raise CatalogError(f"cannot index missing column {column!r} of table {table.name!r}")
        self.table_name = table.name
        self.column = column
        values = table.column(column)
        #: Row positions by ascending key, equal keys by ascending row.
        self.rows = stable_order(values)
        self._sorted = values[self.rows]

    def probe(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Batch equality lookup: ``(starts, counts)`` of each key's run in :attr:`rows`."""
        starts = np.searchsorted(self._sorted, keys, side="left")
        return starts, np.searchsorted(self._sorted, keys, side="right") - starts

    def lookup(self, value: object) -> np.ndarray:
        """Return the row positions whose indexed column equals ``value``.

        A value of a type the column cannot be compared with matches nothing.
        """
        key = np.asarray(value)
        if self._sorted.dtype.kind != "O" and key.dtype.kind not in "biuf":
            # searchsorted would compare a number column with text as strings.
            return self.rows[:0]
        try:
            start, count = self.probe(key)
        except TypeError:
            return self.rows[:0]
        return self.rows[int(start) : int(start + count)]
