"""Columnar in-memory tables.

A :class:`Table` stores each numeric column as a NumPy array and each ``str``
column dictionary-encoded (``int32`` codes into a sorted dictionary, see
:mod:`repro.relalg.encoding`), so string filters, joins and group-bys run on
integer arrays; values are decoded only when a caller asks for them via
:meth:`Table.column`.  Tables are immutable once created (the engine never
updates rows in place), which keeps the statistics collected by ANALYZE valid
for the lifetime of the table and makes sample tables cheap, reproducible
snapshots — derived tables (:meth:`Table.take`) share their parent's
dictionary instead of re-encoding.

A table exposes its row count; the PostgreSQL-style cost formulas in
:mod:`repro.cost` turn row counts into the page accesses they charge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from repro.errors import SchemaError
from repro.relalg.encoding import ColumnData, DictEncodedArray

#: Logical column types supported by the engine.
SUPPORTED_TYPES = ("int", "float", "str")


@dataclass(frozen=True)
class Column:
    """Declaration of a single column.

    Parameters
    ----------
    name:
        Column name, unique within its table.
    type:
        Logical type: ``"int"``, ``"float"`` or ``"str"``.
    """

    name: str
    type: str = "int"

    def __post_init__(self) -> None:
        if self.type not in SUPPORTED_TYPES:
            raise SchemaError(
                f"unsupported column type {self.type!r} for column {self.name!r}; "
                f"expected one of {SUPPORTED_TYPES}"
            )

    def numpy_dtype(self) -> np.dtype:
        """Return the NumPy dtype used to store this column."""
        if self.type == "int":
            return np.dtype(np.int64)
        if self.type == "float":
            return np.dtype(np.float64)
        return np.dtype(object)


@dataclass(frozen=True)
class TableSchema:
    """Ordered collection of :class:`Column` declarations for one table."""

    name: str
    columns: Sequence[Column]

    def __post_init__(self) -> None:
        names = [column.name for column in self.columns]
        if len(names) != len(set(names)):
            raise SchemaError(f"duplicate column names in schema for table {self.name!r}")
        if not names:
            raise SchemaError(f"table {self.name!r} must declare at least one column")

    @property
    def column_names(self) -> List[str]:
        """Names of all columns, in declaration order."""
        return [column.name for column in self.columns]

    def column(self, name: str) -> Column:
        """Return the declaration of column ``name``.

        Raises
        ------
        SchemaError
            If the column does not exist.
        """
        for column in self.columns:
            if column.name == name:
                return column
        raise SchemaError(f"table {self.name!r} has no column {name!r}")

    def has_column(self, name: str) -> bool:
        """Return True if the schema declares a column called ``name``."""
        return any(column.name == name for column in self.columns)


class Table:
    """An immutable, columnar, in-memory table.

    Parameters
    ----------
    schema:
        The table schema.
    columns:
        Mapping from column name to a one-dimensional array-like of values.
        All columns must have the same length.
    """

    def __init__(self, schema: TableSchema, columns: Mapping[str, Iterable]) -> None:
        self.schema = schema

        self._data: Dict[str, ColumnData] = {}
        self._decoded: Dict[str, np.ndarray] = {}
        expected = set(schema.column_names)
        provided = set(columns)
        if expected != provided:
            missing = sorted(expected - provided)
            extra = sorted(provided - expected)
            raise SchemaError(
                f"column mismatch for table {schema.name!r}: missing={missing}, extra={extra}"
            )

        length: Optional[int] = None
        for declaration in schema.columns:
            raw = columns[declaration.name]
            array: ColumnData
            if isinstance(raw, DictEncodedArray) and declaration.type == "str":
                # Derived tables pass codes through; the dictionary is shared.
                array = raw
            else:
                values = np.asarray(raw, dtype=object if declaration.type == "str" else None)
                if values.ndim != 1:
                    raise SchemaError(
                        f"column {declaration.name!r} of table {schema.name!r} "
                        "must be 1-dimensional"
                    )
                if declaration.type == "str":
                    try:
                        array = DictEncodedArray.encode(values)
                    except TypeError:
                        # Mixed / unorderable values (e.g. None among strings)
                        # cannot be dictionary-sorted; store them unencoded.
                        array = values
                elif declaration.type == "int":
                    array = values.astype(np.int64, copy=False)
                else:
                    array = values.astype(np.float64, copy=False)
            if length is None:
                length = len(array)
            elif len(array) != length:
                raise SchemaError(
                    f"column {declaration.name!r} of table {schema.name!r} has length "
                    f"{len(array)}, expected {length}"
                )
            self._data[declaration.name] = array
        self._num_rows = int(length or 0)

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        """The table name (from the schema)."""
        return self.schema.name

    @property
    def num_rows(self) -> int:
        """Number of rows stored in the table."""
        return self._num_rows

    @property
    def column_names(self) -> List[str]:
        """Names of all columns, in declaration order."""
        return self.schema.column_names

    def column(self, name: str) -> np.ndarray:
        """Return column ``name`` as a plain array (strings decoded, cached)."""
        if name not in self._data:
            raise SchemaError(f"table {self.name!r} has no column {name!r}")
        data = self._data[name]
        if isinstance(data, DictEncodedArray):
            if name not in self._decoded:
                self._decoded[name] = data.decode()
            return self._decoded[name]
        return data

    def data_column(self, name: str) -> ColumnData:
        """Return the runtime representation of column ``name``.

        Numeric columns come back as their NumPy arrays; ``str`` columns as
        the :class:`DictEncodedArray` the relational kernels operate on.
        """
        if name not in self._data:
            raise SchemaError(f"table {self.name!r} has no column {name!r}")
        return self._data[name]

    def has_column(self, name: str) -> bool:
        """Return True if the table has a column called ``name``."""
        return name in self._data

    # ------------------------------------------------------------------ #
    # Derivation helpers
    # ------------------------------------------------------------------ #
    def take(self, row_indices: np.ndarray, name: Optional[str] = None) -> "Table":
        """Return a new table containing only the rows at ``row_indices``.

        The rows keep their relative order.  ``name`` optionally renames the
        derived table (used for sample tables).
        """
        row_indices = np.asarray(row_indices)
        new_schema = TableSchema(name or self.schema.name, self.schema.columns)
        new_columns = {
            col: data.take(row_indices) if isinstance(data, DictEncodedArray) else data[row_indices]
            for col, data in self._data.items()
        }
        return Table(new_schema, new_columns)

    def filter(self, mask: np.ndarray, name: Optional[str] = None) -> "Table":
        """Return a new table containing only the rows where ``mask`` is True."""
        mask = np.asarray(mask, dtype=bool)
        if len(mask) != self._num_rows:
            raise SchemaError(
                f"boolean mask of length {len(mask)} does not match table "
                f"{self.name!r} with {self._num_rows} rows"
            )
        return self.take(np.nonzero(mask)[0], name=name)

    def head(self, n: int = 5) -> List[dict]:
        """Return the first ``n`` rows as a list of dicts (for debugging)."""
        n = min(n, self._num_rows)
        return [
            {col: self.column(col)[i] for col in self.column_names}
            for i in range(n)
        ]

    def __len__(self) -> int:
        return self._num_rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table({self.name!r}, rows={self._num_rows}, columns={self.column_names})"


def table_from_rows(schema: TableSchema, rows: Sequence[Mapping[str, object]]) -> Table:
    """Build a :class:`Table` from an iterable of row dictionaries.

    Convenience constructor used mostly in tests and examples; the workload
    generators build columns directly for speed.
    """
    columns: Dict[str, list] = {name: [] for name in schema.column_names}
    for row in rows:
        for name in schema.column_names:
            if name not in row:
                raise SchemaError(f"row is missing column {name!r} for table {schema.name!r}")
            columns[name].append(row[name])
    return Table(schema, columns)
