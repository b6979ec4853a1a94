"""The runtime relation representation shared by all relational kernels.

A :class:`Relation` maps qualified column names (``"alias.column"``) to
runtime columns — plain NumPy arrays or :class:`~repro.relalg.encoding.
DictEncodedArray` for dictionary-encoded strings.  It subclasses ``dict`` so
legacy code (and tests) that treat a relation as a plain mapping keep
working, but it additionally tracks an explicit row count: with projection
pushdown a relation can legitimately carry *zero* columns (e.g. the input of
``COUNT(*)``) while still knowing how many rows it has.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

import numpy as np

from repro.relalg.encoding import (
    ColumnData,
    DictEncodedArray,
    column_fingerprint,
    column_length,
    decode_column,
    slice_column,
    take_column,
)
from repro.relalg.shm import RelationDescriptor, ShmArena, attach_columns

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.storage.table import Table

#: Anything the kernels accept as a relation: a :class:`Relation` proper or
#: the legacy plain column mapping (coerced via :func:`as_relation`).
RelationLike = Union["Relation", Mapping[str, ColumnData]]

#: Default number of rows per morsel.  Large enough that per-task scheduling
#: overhead is negligible next to the NumPy kernel work, small enough that a
#: multi-million-row operator yields dozens of tasks for a handful of workers.
DEFAULT_MORSEL_ROWS = 65_536


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

    def slice_rows(self, start: int, stop: int) -> "Relation":
        """Contiguous row range as a zero-copy view (columns are NumPy slices)."""
        start = max(0, min(start, self._num_rows))
        stop = max(start, min(stop, self._num_rows))
        return Relation(
            {name: slice_column(column, start, stop) for name, column in self.items()},
            num_rows=stop - start,
        )

    def fingerprint(self) -> Tuple[object, ...]:
        """Content fingerprint: column names plus per-column data hashes.

        Two relations with equal fingerprints hold the same rows in the same
        order; the sampling validator keys its prefix/count caches on
        (alias, fingerprint) pairs — the *morsel-set fingerprints* — so
        cached sub-joins stay valid exactly as long as the samples they were
        computed from are unchanged.
        """
        return (
            self._num_rows,
            tuple(sorted((name, column_fingerprint(column)) for name, column in self.items())),
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

    # ------------------------------------------------------------------ #
    # Shared-memory transport (process-backed morsel runtime)
    # ------------------------------------------------------------------ #
    def to_shared(self, arena: ShmArena) -> RelationDescriptor:
        """Publish every column into ``arena``'s shared-memory segments.

        The returned :class:`~repro.relalg.shm.RelationDescriptor` is a tiny
        picklable handle a worker process turns back into a relation with
        :meth:`from_descriptor` — attaching zero-copy views rather than
        receiving pickled arrays.  The segments live as long as the arena's
        scope (and are force-unlinked by ``TaskScheduler.close()`` at the
        latest), so descriptors must not outlive the ``map`` they were
        built for.
        """
        return arena.share_relation(self)

    @classmethod
    def from_descriptor(cls, descriptor: RelationDescriptor) -> "Relation":
        """Attach a shared relation published by :meth:`to_shared` (zero-copy).

        The columns are read-only views into the parent's segments; callers
        that need to mutate must copy first.
        """
        return cls(attach_columns(descriptor.columns), num_rows=descriptor.num_rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        encoded = sum(1 for c in self.values() if isinstance(c, DictEncodedArray))
        return f"Relation(rows={self._num_rows}, columns={len(self)}, encoded={encoded})"


class ChunkedRelation:
    """A relation split into fixed-size column morsels (zero-copy views).

    The unit of work of the morsel-driven runtime: every parallel operator
    takes tasks of one morsel (or one partition) at a time.  Chunking is pure
    bookkeeping — each morsel's columns are NumPy slice views into the parent
    relation's arrays, so building a :class:`ChunkedRelation` never copies row
    data.

    Morsel boundaries are deterministic (``[0, morsel_rows, 2·morsel_rows,
    ...]``), so the sequence of morsels — and therefore the submission order
    of every task derived from it — is a pure function of the relation and
    the configured morsel size.
    """

    __slots__ = ("relation", "morsel_rows", "_bounds")

    def __init__(self, relation: Relation, morsel_rows: int = DEFAULT_MORSEL_ROWS) -> None:
        if morsel_rows <= 0:
            raise ValueError(f"morsel_rows must be positive, got {morsel_rows}")
        self.relation = relation
        self.morsel_rows = int(morsel_rows)
        rows = relation.num_rows
        starts = list(range(0, rows, self.morsel_rows)) or [0]
        self._bounds: List[Tuple[int, int]] = [
            (start, min(start + self.morsel_rows, rows)) for start in starts
        ]

    @classmethod
    def from_relation(
        cls, relation: RelationLike, morsel_rows: int = DEFAULT_MORSEL_ROWS
    ) -> "ChunkedRelation":
        """Chunk a relation (or plain column mapping) into morsels."""
        return cls(as_relation(relation), morsel_rows)

    @property
    def num_rows(self) -> int:
        return self.relation.num_rows

    @property
    def num_morsels(self) -> int:
        return len(self._bounds)

    @property
    def bounds(self) -> List[Tuple[int, int]]:
        """The (start, stop) row range of every morsel, in order."""
        return list(self._bounds)

    def morsel(self, index: int) -> Relation:
        """The ``index``-th morsel as a zero-copy relation view."""
        start, stop = self._bounds[index]
        return self.relation.slice_rows(start, stop)

    def __len__(self) -> int:
        return len(self._bounds)

    def __iter__(self) -> Iterator[Relation]:
        for index in range(len(self._bounds)):
            yield self.morsel(index)

    def concat(self) -> Relation:
        """The chunked relation as one contiguous relation (the parent)."""
        return self.relation

    def fingerprint(self) -> Tuple[object, ...]:
        """Morsel-set fingerprint: content fingerprint plus the chunking grid."""
        return (self.morsel_rows, len(self._bounds)) + self.relation.fingerprint()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ChunkedRelation(rows={self.num_rows}, morsels={len(self._bounds)}, "
            f"morsel_rows={self.morsel_rows})"
        )


def _concat_encoded(columns: List[DictEncodedArray]) -> DictEncodedArray:
    """Concatenate encoded columns in code space, whatever their dictionaries.

    Parts of one chunked relation share a dictionary object; shard fragments
    arrive with one dictionary object per shard — equal contents when every
    shard saw every value, genuinely different otherwise.  Equal dictionaries
    are reused; different ones are unioned (they are small and sorted) and
    each part's codes remapped, so the result's dictionary stays sorted and
    no caller ever sorts the decoded strings.
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

    The deterministic merge step of the morsel runtime and of the sharded
    gather: the caller supplies parts in morsel (or shard) order, so the
    output row order never depends on worker scheduling.  Encoded columns
    stay encoded (:func:`_concat_encoded`).
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


def as_relation(columns: RelationLike) -> Relation:
    """Coerce a plain column mapping (legacy representation) to a Relation."""
    if isinstance(columns, Relation):
        return columns
    return Relation(columns)


def relation_num_rows(relation: RelationLike) -> int:
    """Number of rows of a relation or plain column mapping."""
    if isinstance(relation, Relation):
        return relation.num_rows
    if not relation:
        return 0
    return column_length(next(iter(relation.values())))
