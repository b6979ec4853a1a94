"""Vectorised grouped aggregation.

Rows are grouped by lexicographically sorting the key columns (dictionary
codes for encoded string keys, so string grouping sorts ``int32`` arrays) and
finding group boundaries; every aggregate is then computed for *all* groups
at once with ``np.add.reduceat`` / ``np.minimum.reduceat`` /
``np.maximum.reduceat`` over the sorted values.  This replaces the seed's
per-group Python loop, which dominated aggregation time beyond a few hundred
groups.

``SUM`` is the correctly rounded sum of a group's values in any row order
(:func:`exact_group_sums`) and ``AVG`` divides it once by the count, so every
aggregate is a function of the row multiset and needs no canonical order.

SQL corner cases follow the seed semantics: a global aggregate over an empty
input yields ``count = 0`` and NaN for the other functions; numeric
aggregates are computed in ``float64``.  ``MIN``/``MAX`` over
dictionary-encoded string columns reduce the codes and decode the winners
(valid because the dictionary is sorted).
"""

from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import ExecutionError
from repro.relalg.encoding import (
    ColumnData, DictEncodedArray, sort_key, stable_order, take_column,
)
from repro.relalg.relation import Relation
from repro.sql.ast import Aggregate, ColumnRef


#: Rows per block of :func:`exact_group_sums`, whose scratch is one block.
_SUM_BLOCK_ROWS = 1 << 16
#: From this magnitude on, the level extraction's ``sigma`` could overflow.
_EXTRACTION_LIMIT = 2.0 ** 970


def _exact_python_sum(values: np.ndarray) -> float:
    """The correctly rounded sum of ``values`` in rational arithmetic.  NaN
    if there is a NaN or both infinities, else an infinity if there is one
    (``math.fsum``'s rule) or the exact sum overflows."""
    special = values[~np.isfinite(values)]
    if len(special):
        with np.errstate(invalid="ignore"):
            return float(special.sum())
    total = sum(map(Fraction, values.tolist()), Fraction(0))
    try:
        return float(total)  # int / int rounds correctly
    except OverflowError:
        return math.inf if total > 0 else -math.inf


def _magnitude(values: np.ndarray) -> float:
    """``max|values|`` without a temporary (NaN if there is a NaN)."""
    return max(float(values.max()), -float(values.min()))


def exact_group_sums(values: np.ndarray, group_starts: np.ndarray) -> np.ndarray:
    """The correctly rounded ``float64`` sum of each group of ``values`` in
    any row order (rows sorted by group, ``group_starts`` ascending from 0).

    Integers whose partial sums stay below ``2**53`` add exactly in any
    order, in one ``np.add.reduceat``.  Other values, as ``float64``, go
    through error-free level extraction (Rump, Ogita and Oishi's
    ExtractVector) one block at a time: with ``max|r| < 2**e`` and ``bits =
    52 - bit_length(largest group)``, a level splits each residual ``r``
    into ``hi = (r + sigma) - sigma``, ``sigma = 1.5 * 2**(e + 52 - bits)``,
    and ``r - hi`` (both exact), so ``reduceat`` sums the multiples ``hi``
    of ``2**(e - bits)`` exactly in any order.  Levels repeat with ``e -=
    bits`` until every residual is zero.  A group's one or two nonzero level
    sums take one IEEE add (correctly rounded), more take ``math.fsum``;
    groups holding a NaN, an infinity or a magnitude ``>= 2**970`` take
    :func:`_exact_python_sum`.  A zero sum is ``+0.0``.
    """
    rows, groups = len(values), len(group_starts)
    sizes = group_starts[1:] - group_starts[:-1]
    largest = int(max(sizes.max(initial=0), rows - group_starts[-1]))
    if values.dtype.kind in "iu" and largest * _magnitude(values) < 2**53:
        return np.add.reduceat(values, group_starts).astype(np.float64)
    values = np.asarray(values, dtype=np.float64)
    bits = 52 - min(largest, _SUM_BLOCK_ROWS).bit_length()
    totals = np.zeros(groups)
    counts = np.zeros(groups, dtype=np.int64)
    blocks: List[Tuple[int, np.ndarray]] = []
    wild: Set[int] = set()
    residual_buffer, level_buffer = np.empty((2, min(rows, _SUM_BLOCK_ROWS)))
    for low in range(0, rows, _SUM_BLOCK_ROWS):
        high = min(low + _SUM_BLOCK_ROWS, rows)
        first = int(np.searchsorted(group_starts, low, side="right")) - 1
        last = int(np.searchsorted(group_starts, high, side="left"))
        starts = np.maximum(group_starts[first:last], low) - low
        residual, level = residual_buffer[:high - low], level_buffer[:high - low]
        source = values[low:high]
        top = _magnitude(source)
        if not top < _EXTRACTION_LIMIT:
            outside = ~(np.abs(source) < _EXTRACTION_LIMIT)  # NaN too
            owning = np.searchsorted(starts, np.flatnonzero(outside), "right") - 1
            wild.update((first + owning).tolist())
            source = np.where(outside, 0.0, source)
            top = _magnitude(source)
        levels = []
        exponent, pending = math.frexp(top)[1], top > 0.0
        while pending:
            sigma = math.ldexp(1.5, exponent + 52 - bits)
            np.add(source, sigma, out=level)
            level -= sigma
            source = np.subtract(source, level, out=residual)
            levels.append(np.add.reduceat(level, starts))
            exponent -= bits  # |r - hi| <= 2**(exponent - bits - 1)
            pending = bool(residual.any())
        if levels:  # zero level sums add exactly
            sums = np.array(levels)
            totals[first:last] += sums.sum(axis=0)
            counts[first:last] += (sums != 0.0).sum(axis=0)
            blocks.append((first, sums))
    multi = counts > 2
    if multi.any():
        pieces: Dict[int, List[float]] = {}
        for first, sums in blocks:
            local = np.flatnonzero(multi[first:first + sums.shape[1]])
            for group, column in zip((first + local).tolist(), sums[:, local].T.tolist()):
                pieces.setdefault(group, []).extend(column)
        for group, group_pieces in sorted(pieces.items()):
            totals[group] = math.fsum(group_pieces)
    for group in sorted(wild):
        end = int(group_starts[group + 1]) if group + 1 < groups else rows
        totals[group] = _exact_python_sum(values[group_starts[group]:end])
    return totals


def _global_aggregate(relation: Relation, aggregates: Sequence[Aggregate]) -> Relation:
    rows = relation.num_rows
    result = Relation(num_rows=1)
    for aggregate in aggregates:
        if aggregate.func == "count":
            result[aggregate.output_name] = np.array([rows], dtype=np.int64)
            continue
        column = relation.get(f"{aggregate.alias}.{aggregate.column}")
        if column is None or len(column) == 0:
            result[aggregate.output_name] = np.array([float("nan")])
            continue
        if isinstance(column, DictEncodedArray):
            if aggregate.func == "min":
                value = column.dictionary[int(column.codes.min())]
            elif aggregate.func == "max":
                value = column.dictionary[int(column.codes.max())]
            else:
                raise ExecutionError(
                    f"aggregate {aggregate.func!r} is not defined for string column "
                    f"{aggregate.alias}.{aggregate.column}"
                )
            result[aggregate.output_name] = np.array([value], dtype=object)
            continue
        if aggregate.func in ("sum", "avg"):
            value = float(exact_group_sums(np.asarray(column), np.zeros(1, dtype=np.int64))[0])
            if aggregate.func == "avg":
                value /= rows
        else:
            numeric = np.asarray(column, dtype=np.float64)
            value = float(numeric.min() if aggregate.func == "min" else numeric.max())
        result[aggregate.output_name] = np.array([value])
    return result


def _grouped_values(
    aggregate: Aggregate,
    sorted_column: Optional[ColumnData],
    group_starts: np.ndarray,
    group_counts: np.ndarray,
) -> np.ndarray:
    """One aggregate over every group of the boundary-sorted input."""
    if aggregate.func == "count":
        return group_counts.astype(np.int64)
    if sorted_column is None:
        raise ExecutionError(f"aggregate {aggregate.func!r} requires a column argument")
    if isinstance(sorted_column, DictEncodedArray):
        if aggregate.func == "min":
            winners = np.minimum.reduceat(sorted_column.codes, group_starts)
        elif aggregate.func == "max":
            winners = np.maximum.reduceat(sorted_column.codes, group_starts)
        else:
            raise ExecutionError(
                f"aggregate {aggregate.func!r} is not defined for string columns"
            )
        return sorted_column.dictionary[winners]
    if aggregate.func in ("sum", "avg"):
        sums = exact_group_sums(np.asarray(sorted_column), group_starts)
        return sums if aggregate.func == "sum" else sums / group_counts
    numeric = np.asarray(sorted_column, dtype=np.float64)
    if aggregate.func == "min":
        return np.minimum.reduceat(numeric, group_starts)
    if aggregate.func == "max":
        return np.maximum.reduceat(numeric, group_starts)
    raise ExecutionError(f"unsupported aggregate function {aggregate.func!r}")


def group_aggregate(
    relation: Relation,
    group_by: Sequence[ColumnRef],
    aggregates: Sequence[Aggregate],
) -> Relation:
    """Grouped aggregation over a runtime relation (vectorised)."""
    rows = relation.num_rows
    if not group_by:
        return _global_aggregate(relation, aggregates)

    key_names = [f"{ref.alias}.{ref.column}" for ref in group_by]
    key_columns = [relation[name] for name in key_names]
    if rows == 0:
        result = Relation(num_rows=0)
        for name, column in zip(key_names, key_columns):
            result[name] = take_column(column, np.empty(0, dtype=np.int64))
        for aggregate in aggregates:
            if aggregate.func == "count":
                dtype: type = np.int64
            else:
                column = (
                    relation.get(f"{aggregate.alias}.{aggregate.column}")
                    if aggregate.column is not None
                    else None
                )
                # Match the non-empty path: string min/max decode to objects.
                if isinstance(column, DictEncodedArray) and aggregate.func in ("min", "max"):
                    dtype = object
                else:
                    dtype = np.float64
            result[aggregate.output_name] = np.empty(0, dtype=dtype)
        return result

    # Group ids via one stable order over the key columns (codes for encoded ones).
    order = stable_order(*[sort_key(column) for column in key_columns])
    sorted_keys = [take_column(column, order) for column in key_columns]
    changes = np.zeros(rows, dtype=bool)
    changes[0] = True
    for column in sorted_keys:
        key = sort_key(column)
        changes[1:] |= key[1:] != key[:-1]
    group_starts = np.nonzero(changes)[0]
    group_counts = np.diff(np.concatenate((group_starts, [rows])))

    result = Relation(num_rows=len(group_starts))
    for name, column in zip(key_names, sorted_keys):
        result[name] = take_column(column, group_starts)
    sorted_cache: Dict[str, ColumnData] = {}
    for aggregate in aggregates:
        sorted_column: Optional[ColumnData] = None
        if aggregate.column is not None:
            name = f"{aggregate.alias}.{aggregate.column}"
            if name not in sorted_cache:
                sorted_cache[name] = take_column(relation[name], order)
            sorted_column = sorted_cache[name]
        result[aggregate.output_name] = _grouped_values(
            aggregate, sorted_column, group_starts, group_counts
        )
    return result


# --------------------------------------------------------------------------- #
# Partial aggregation (sharded scatter-gather merge)
# --------------------------------------------------------------------------- #
#: Aggregate functions whose shard partials merge bit-identically: counts
#: add (exactly, below 2**53), winners compare.  A ``SUM`` of correctly
#: rounded shard sums would round twice, so ``SUM``/``AVG`` are not here.
_EXACT_PARTIALS = frozenset({"count", "min", "max"})


def partial_merge_exact(aggregates: Sequence[Aggregate]) -> bool:
    """True when merging shard partials is bit-identical to single-node."""
    return all(aggregate.func in _EXACT_PARTIALS for aggregate in aggregates)


#: Alias of the partial-state columns: state ``s`` of a shard partial is
#: column ``$.s``, so the merge reads it as an ordinary aggregate argument.
_STATE_ALIAS = "$"


def partial_aggregate(
    relation: Relation,
    group_by: Sequence[ColumnRef],
    aggregates: Sequence[Aggregate],
) -> Relation:
    """One shard's partial-aggregate states over its fragment.

    Returns a relation of *decoded* group keys (object arrays for strings, so
    the states are independent of any per-shard dictionary) plus one
    ``$.<output>`` column per aggregate: counts and min/max winners (the
    only functions :func:`partial_merge_exact` admits).  A shard with no rows
    contributes no state rows, not even to a global (no ``group_by``)
    aggregate, whose single row would otherwise carry placeholder NaNs into
    the merge.
    """
    if not partial_merge_exact(aggregates):
        raise ExecutionError("only COUNT/MIN/MAX partials merge bit-identically")
    partial = group_aggregate(
        relation,
        group_by,
        [replace(aggregate, output_name=f"{_STATE_ALIAS}.{aggregate.output_name}")
         for aggregate in aggregates],
    )
    if not group_by and relation.num_rows == 0:
        return partial.empty_like()
    # Group keys leave the shard in value space: dictionaries are per-shard.
    return partial.decoded()


def merge_partials(
    states: Relation,
    group_by: Sequence[ColumnRef],
    aggregates: Sequence[Aggregate],
) -> Relation:
    """Merge shard partial states into the single-node result.

    ``states`` are the :func:`partial_aggregate` outputs of every shard,
    concatenated in canonical (sorted shard-id) order.  The merge is one
    :func:`group_aggregate` over them: string columns are re-encoded against
    a sorted dictionary first, so groups come out in key-value order — the
    order single-node aggregation emits — and string winners compare by
    value.  Counts add and winners compare exactly, so the result is
    bit-identical to aggregating the union of the shards' rows on one node.
    """
    states = Relation(
        {
            name: DictEncodedArray.encode(column)
            if isinstance(column, np.ndarray) and column.dtype == object
            else column
            for name, column in sorted(states.items())
        },
        num_rows=states.num_rows,
    )
    merged = group_aggregate(
        states,
        group_by,
        [Aggregate("sum" if aggregate.func == "count" else aggregate.func,
                   _STATE_ALIAS, aggregate.output_name, aggregate.output_name)
         for aggregate in aggregates],
    )
    for aggregate in aggregates:
        if aggregate.func == "count":
            # Counts merge as a float sum; a global merge of no state rows
            # sums to NaN, which counted zero rows.
            name = aggregate.output_name
            merged[name] = np.nan_to_num(np.asarray(merged[name])).astype(np.int64)
    return merged
