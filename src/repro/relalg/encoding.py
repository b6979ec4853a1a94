"""Dictionary encoding for string columns.

A :class:`DictEncodedArray` stores a string column as ``int32`` codes into a
*sorted* dictionary of distinct values.  Because the dictionary is sorted,
code order agrees with value order, so every comparison the engine supports
(equality, ranges, ``IN``, ``BETWEEN``, sorting for merge joins and grouped
aggregation) can run directly on the integer codes — string kernels therefore
execute on ``int32`` arrays instead of NumPy object arrays.

Decoding back to the original values happens only at the edge of the system
(query output, debugging helpers); everything in :mod:`repro.relalg` operates
on codes.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

#: A runtime column is either a plain NumPy array or a dictionary-encoded one.
ColumnData = Union[np.ndarray, "DictEncodedArray"]


class DictEncodedArray:
    """A dictionary-encoded column: ``int32`` codes into a sorted dictionary.

    Parameters
    ----------
    codes:
        ``int32`` array of positions into ``dictionary`` (one per row).
    dictionary:
        Sorted object array of the distinct values.
    """

    __slots__ = ("codes", "dictionary")

    def __init__(self, codes: np.ndarray, dictionary: np.ndarray) -> None:
        self.codes = codes
        self.dictionary = dictionary

    @classmethod
    def encode(cls, values: np.ndarray) -> "DictEncodedArray":
        """Encode an array of values (``np.unique`` sorts the dictionary)."""
        dictionary, codes = np.unique(np.asarray(values, dtype=object), return_inverse=True)
        return cls(codes.astype(np.int32, copy=False), dictionary)

    def __len__(self) -> int:
        return len(self.codes)

    @property
    def dtype(self) -> np.dtype:
        """The logical dtype (what :meth:`decode` produces)."""
        return np.dtype(object)

    def decode(self) -> np.ndarray:
        """Materialise the original object array."""
        return self.dictionary[self.codes]

    def take(self, indices: np.ndarray) -> "DictEncodedArray":
        """Row subset sharing the same dictionary (no re-encoding)."""
        return DictEncodedArray(self.codes[indices], self.dictionary)

    def slice(self, start: int, stop: int) -> "DictEncodedArray":
        """Contiguous row range as a zero-copy view (codes are a NumPy slice)."""
        return DictEncodedArray(self.codes[start:stop], self.dictionary)

    def code_for(self, value: object) -> Optional[int]:
        """The code of ``value``, or ``None`` when it is not in the dictionary.

        A value that cannot be compared with the dictionary entries (e.g. an
        integer literal against a string column) is simply not present.
        """
        try:
            position = int(np.searchsorted(self.dictionary, value))
        except TypeError:
            return None
        if position < len(self.dictionary) and self.dictionary[position] == value:
            return position
        return None

    def boundary_code(self, value: object, side: str = "left") -> int:
        """``np.searchsorted`` position of ``value`` in the sorted dictionary.

        Because codes are order-preserving, ``codes < boundary_code(v)`` is
        exactly ``values < v`` (``side="left"``) and ``codes <
        boundary_code(v, "right")`` is ``values <= v``.
        """
        return int(np.searchsorted(self.dictionary, value, side=side))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DictEncodedArray(rows={len(self.codes)}, distinct={len(self.dictionary)})"


def column_length(column: ColumnData) -> int:
    """Number of rows in a runtime column of either representation."""
    return len(column)


def take_column(column: ColumnData, indices: np.ndarray) -> ColumnData:
    """Row subset of a runtime column, preserving its representation."""
    if isinstance(column, DictEncodedArray):
        return column.take(indices)
    return column[indices]


def decode_column(column: ColumnData) -> np.ndarray:
    """Materialise a runtime column as a plain NumPy array."""
    if isinstance(column, DictEncodedArray):
        return column.decode()
    return column


def column_fingerprint(column: ColumnData) -> Tuple:
    """A cheap content fingerprint of a runtime column.

    Used to build :meth:`~repro.relalg.relation.Relation.fingerprint`, the
    sampling validator's cache keys: identical content always yields an
    identical fingerprint, so caches keyed on it stay valid across rounds as
    long as the underlying data is unchanged.  Numeric data hashes its raw
    bytes with CRC32; encoded columns hash their code bytes plus the
    dictionary size; object arrays (rare: unencoded strings) fall back to
    hashing the Python values.
    """
    import zlib

    if isinstance(column, DictEncodedArray):
        codes = np.ascontiguousarray(column.codes)
        return ("dict", len(codes), len(column.dictionary), zlib.crc32(codes.tobytes()))
    values = np.asarray(column)
    if values.dtype == object:
        return ("object", len(values), hash(tuple(values.tolist())))
    contiguous = np.ascontiguousarray(values)
    return ("plain", str(contiguous.dtype), len(contiguous), zlib.crc32(contiguous.tobytes()))


def sort_key(column: ColumnData) -> np.ndarray:
    """An array whose ordering matches the column's value ordering.

    For encoded columns this is the ``int32`` code array (the dictionary is
    sorted), which sorts an order of magnitude faster than object arrays.
    """
    if isinstance(column, DictEncodedArray):
        return column.codes
    return column


def value_counts(column: ColumnData) -> Tuple[np.ndarray, np.ndarray]:
    """Distinct values and their occurrence counts (sorted by value).

    Encoded columns answer this from the dictionary with one ``bincount`` over
    the ``int32`` codes — no object-array ``np.unique`` pass.
    """
    if isinstance(column, DictEncodedArray):
        counts = np.bincount(column.codes, minlength=len(column.dictionary))
        present = counts > 0
        return column.dictionary[present], counts[present]
    try:
        return np.unique(column, return_counts=True)
    except TypeError:
        # Unorderable values (e.g. None among strings) cannot be sorted by
        # np.unique; count them by hashing instead (order is unspecified).
        from collections import Counter

        counter = Counter(np.asarray(column).tolist())
        values = np.empty(len(counter), dtype=object)
        values[:] = list(counter.keys())
        return values, np.array(list(counter.values()), dtype=np.int64)


def codes_against(sorted_values: np.ndarray, probe: np.ndarray) -> np.ndarray:
    """Positions of ``probe`` values in ``sorted_values`` (sentinel = miss).

    The shared translation step of the join kernels: values missing from
    ``sorted_values`` — including values that cannot be *compared* with its
    entries, such as ``None`` among strings or a numeric probe against a
    string dictionary — map to the sentinel code ``len(sorted_values)``,
    which never matches a real code.  Incomparable values degrade to a
    per-element probe so one bad row never poisons the rest.
    """
    sentinel = len(sorted_values)
    probe = np.asarray(probe)
    if sentinel == 0:
        return np.full(len(probe), sentinel, dtype=np.int64)
    try:
        positions = np.searchsorted(sorted_values, probe)
    except TypeError:
        return _codes_against_elementwise(sorted_values, probe)
    clipped = np.minimum(positions, sentinel - 1)
    valid = (positions < sentinel) & (sorted_values[clipped] == probe)
    return np.where(valid, clipped, sentinel)


def _codes_against_elementwise(sorted_values: np.ndarray, probe: np.ndarray) -> np.ndarray:
    sentinel = len(sorted_values)
    out = np.full(len(probe), sentinel, dtype=np.int64)
    for index, value in enumerate(np.asarray(probe, dtype=object)):
        try:
            position = int(np.searchsorted(sorted_values, value))
        except TypeError:
            continue
        if position < sentinel and sorted_values[position] == value:
            out[index] = position
    return out


def fits_direct_table(domain: int, left_rows: int, right_rows: int) -> bool:
    """The join kernels' one density rule: a table addressed directly by code
    (no sort, no search) is affordable up to four slots per joined row.

    :func:`factorize_pair` applies it to an integer key's value span,
    ``hash_match`` to the (possibly composite) code domain.
    """
    return domain <= 4 * (left_rows + right_rows)


def _direct_codes(
    left: np.ndarray, right: np.ndarray
) -> Optional[Tuple[np.ndarray, np.ndarray, int]]:
    """``key - min(right)`` as the code; left keys outside the span get ``span``.

    ``None`` (take the sorting path) unless both sides are integer columns —
    not ``bool``, float or object — whose values all fit ``int64``, ``right``
    is non-empty and its value span passes :func:`fits_direct_table`.
    """
    if len(right) == 0 or left.dtype.kind not in "iu" or right.dtype.kind not in "iu":
        return None
    low, high, int64_max = int(right.min()), int(right.max()), np.iinfo(np.int64).max
    span = high - low + 1  # Python ints: an int64 column's extremes cannot overflow
    if high > int64_max or not fits_direct_table(span + 1, len(left), len(right)):
        return None
    if left.dtype == np.uint64 and len(left) and int(left.max()) > int64_max:
        return None
    # Widen before subtracting: narrow and unsigned dtypes would wrap.  The
    # int64 ``left_keys - low`` can still wrap, but only where ``inside`` is false.
    left_keys = left.astype(np.int64, copy=False)
    inside = (left_keys >= low) & (left_keys <= high)
    codes = np.where(inside, left_keys - low, span)
    return codes, right.astype(np.int64, copy=False) - low, span + 1


def factorize_pair(
    left: ColumnData, right: ColumnData
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Map two key columns onto one shared integer code domain.

    Returns ``(left_codes, right_codes, domain_size)``: ``int64`` codes in
    ``[0, domain_size)`` such that two rows join exactly when their codes are
    equal.  Values present on only one side are mapped to a sentinel code
    that never matches the other side.  This is the "factorize" step all
    three join kernels share; none depends on *which* code a value gets:

    * dictionary-encoded keys stay in (one side's) dictionary code space;
    * dense plain integers (:func:`fits_direct_table` on the right side's
      value span — every TPC-H/TPC-DS/OTT key) are direct-addressed,
      ``key - min``, with no sort and no search;
    * anything else (sparse integers, floats, ``bool``, objects) sorts the
      right side's distinct values and binary-searches the left against them.
    """
    if isinstance(left, DictEncodedArray) and isinstance(right, DictEncodedArray):
        if left.dictionary is right.dictionary:
            return (
                left.codes.astype(np.int64, copy=False),
                right.codes.astype(np.int64, copy=False),
                len(left.dictionary),
            )
        # Translate right codes into the left dictionary's code space.
        translation = codes_against(left.dictionary, right.dictionary)
        return (
            left.codes.astype(np.int64, copy=False),
            translation[right.codes],
            len(left.dictionary) + 1,
        )
    if isinstance(left, DictEncodedArray):
        right_codes = codes_against(left.dictionary, np.asarray(right))
        return left.codes.astype(np.int64, copy=False), right_codes, len(left.dictionary) + 1
    if isinstance(right, DictEncodedArray):
        left_codes = codes_against(right.dictionary, np.asarray(left))
        return left_codes, right.codes.astype(np.int64, copy=False), len(right.dictionary) + 1
    left, right = np.asarray(left), np.asarray(right)
    direct = _direct_codes(left, right)
    if direct is not None:
        return direct
    # Factorize over the right side's distinct values.
    try:
        right_unique, right_codes = np.unique(right, return_inverse=True)
    except TypeError:
        # Unorderable right-side values (e.g. None among strings): factorize
        # by hashing instead of sorting.
        mapping: dict = {}
        right_codes = np.empty(len(right), dtype=np.int64)
        for index, value in enumerate(np.asarray(right, dtype=object).tolist()):
            right_codes[index] = mapping.setdefault(value, len(mapping))
        left_codes = np.array(
            [mapping.get(value, len(mapping)) for value in np.asarray(left, dtype=object).tolist()],
            dtype=np.int64,
        )
        return left_codes, right_codes, len(mapping) + 1
    return codes_against(right_unique, left), right_codes, len(right_unique) + 1
