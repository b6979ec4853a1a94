"""Secondary indexes over table columns.

One index class, :class:`SortedIndex`: a stable argsort of the column (one
sort per indexed column) serving equality lookups for index scans, range
lookups, and the batch :meth:`SortedIndex.probe` the index nested-loop join
kernel (:func:`repro.relalg.joins.index_nested_loop_join`) runs on.

Indexes store *row positions* into the base table, so a lookup composes with
:meth:`repro.storage.table.Table.take`.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import CatalogError
from repro.storage.table import Table


class SortedIndex:
    """Order-preserving index: equality, range and batch lookups by binary search."""

    def __init__(self, table: Table, column: str) -> None:
        if not table.has_column(column):
            raise CatalogError(f"cannot index missing column {column!r} of table {table.name!r}")
        self.table_name = table.name
        self.column = column
        values = table.column(column)
        #: Row positions by ascending key, equal keys by ascending row.
        self.rows = np.argsort(values, kind="stable")
        self._sorted = values[self.rows]

    @property
    def num_keys(self) -> int:
        """Number of distinct keys in the index."""
        if len(self._sorted) == 0:
            return 0
        return int(np.count_nonzero(self._sorted[1:] != self._sorted[:-1])) + 1

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

    def range_lookup(
        self,
        low: Optional[object] = None,
        high: Optional[object] = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> np.ndarray:
        """Return the row positions whose indexed value lies in ``[low, high]``.

        Either bound may be ``None`` for an open-ended range; inclusivity of
        each bound is controlled independently.
        """
        lo = 0
        hi = len(self._sorted)
        if low is not None:
            side = "left" if include_low else "right"
            lo = int(np.searchsorted(self._sorted, low, side=side))
        if high is not None:
            side = "right" if include_high else "left"
            hi = int(np.searchsorted(self._sorted, high, side=side))
        if hi < lo:
            hi = lo
        return self.rows[lo:hi]
