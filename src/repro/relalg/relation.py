"""The runtime relation representation shared by all relational kernels.

A :class:`Relation` maps qualified column names (``"alias.column"``) to
runtime columns — plain NumPy arrays or :class:`~repro.relalg.encoding.
DictEncodedArray` for dictionary-encoded strings.  It is a ``dict`` of those
columns that also tracks an explicit row count: with projection pushdown a
relation can legitimately carry *zero* columns (e.g. the input of
``COUNT(*)``) while still knowing how many rows it has.  Every kernel takes
and returns a :class:`Relation`.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
)

import numpy as np

from repro.relalg.encoding import (
    ColumnData,
    DictEncodedArray,
    column_length,
    decode_column,
    take_column,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.storage.table import Table

class Relation(Dict[str, ColumnData]):
    """A columnar batch of rows: qualified column name → runtime column."""

    __slots__ = ("_num_rows",)

    def __init__(
        self,
        columns: Optional[Mapping[str, ColumnData]] = None,
        num_rows: Optional[int] = None,
    ) -> None:
        super().__init__(columns or {})
        if num_rows is None:
            num_rows = column_length(next(iter(self.values()))) if len(self) else 0
        self._num_rows = int(num_rows)

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_table(
        cls, table: "Table", alias: str, columns: Optional[Iterable[str]] = None
    ) -> "Relation":
        """Build a relation over ``table``'s columns qualified with ``alias``.

        ``columns`` restricts the relation to a subset of the table's columns
        (projection pushdown); the row count is taken from the table so even
        an empty projection keeps it.
        """
        names = list(columns) if columns is not None else list(table.column_names)
        data = {f"{alias}.{name}": table.data_column(name) for name in names}
        return cls(data, num_rows=table.num_rows)

    # ------------------------------------------------------------------ #
    # Core properties
    # ------------------------------------------------------------------ #
    @property
    def num_rows(self) -> int:
        """Number of rows (tracked explicitly, valid even with no columns)."""
        return self._num_rows

    def empty_like(self) -> "Relation":
        """A zero-row relation with the same columns."""
        empty_indices = np.empty(0, dtype=np.int64)
        return Relation(
            {name: take_column(column, empty_indices) for name, column in self.items()},
            num_rows=0,
        )

    # ------------------------------------------------------------------ #
    # Row / column operations
    # ------------------------------------------------------------------ #
    def take(self, indices: np.ndarray) -> "Relation":
        """Row subset by integer indices."""
        return Relation(
            {name: take_column(column, indices) for name, column in self.items()},
            num_rows=len(indices),
        )

    def select(self, mask: np.ndarray) -> "Relation":
        """Row subset by boolean mask: one index build, then a gather per column."""
        return self.take(np.flatnonzero(mask))

    def project(self, names: Iterable[str]) -> "Relation":
        """Column subset (missing names are ignored), same rows."""
        wanted = set(names)
        return Relation(
            {name: column for name, column in self.items() if name in wanted},
            num_rows=self._num_rows,
        )

    def decoded(self) -> "Relation":
        """Materialise every dictionary-encoded column as an object array.

        Called once at the edge of the executor so query output (and tests)
        see plain NumPy arrays.
        """
        return Relation(
            {name: decode_column(column) for name, column in self.items()},
            num_rows=self._num_rows,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        encoded = sum(1 for c in self.values() if isinstance(c, DictEncodedArray))
        return f"Relation(rows={self._num_rows}, columns={len(self)}, encoded={encoded})"


def _concat_encoded(columns: List[DictEncodedArray]) -> DictEncodedArray:
    """Concatenate encoded columns in code space, whatever their dictionaries.

    Shard fragments arrive with one dictionary object per shard — equal
    contents when every shard saw every value, genuinely different otherwise.
    Equal dictionaries are reused; different ones are unioned (they are small
    and sorted) and each part's codes remapped, so the result's dictionary
    stays sorted and no caller ever sorts the decoded strings.
    """
    dictionary = columns[0].dictionary
    if all(
        column.dictionary is dictionary or np.array_equal(column.dictionary, dictionary)
        for column in columns
    ):
        return DictEncodedArray(np.concatenate([c.codes for c in columns]), dictionary)
    dictionary = np.unique(np.concatenate([c.dictionary for c in columns]))
    codes = [np.searchsorted(dictionary, c.dictionary)[c.codes] for c in columns]
    return DictEncodedArray(np.concatenate(codes).astype(np.int32), dictionary)


def concat_relations(parts: Iterable[Relation]) -> Relation:
    """Concatenate relations with identical columns, in the given order.

    The deterministic merge step of the sharded gather: the caller supplies
    parts in shard order, so the output row order is a function of the
    shards alone.  Encoded columns stay encoded (:func:`_concat_encoded`).
    """
    parts = [part for part in parts]
    if not parts:
        return Relation()
    if len(parts) == 1:
        return parts[0]
    total_rows = sum(part.num_rows for part in parts)
    columns: Dict[str, ColumnData] = {}
    for name in list(parts[0].keys()):
        pieces = [part[name] for part in parts]
        encoded = [piece for piece in pieces if isinstance(piece, DictEncodedArray)]
        if len(encoded) == len(pieces):
            columns[name] = _concat_encoded(encoded)
        else:
            columns[name] = np.concatenate([decode_column(piece) for piece in pieces])
    return Relation(columns, num_rows=total_rows)
