"""Vectorised grouped aggregation.

Rows are grouped by lexicographically sorting the key columns (dictionary
codes for encoded string keys, so string grouping sorts ``int32`` arrays) and
finding group boundaries; every aggregate is then computed for *all* groups
at once with ``np.add.reduceat`` / ``np.minimum.reduceat`` /
``np.maximum.reduceat`` over the sorted values.  This replaces the seed's
per-group Python loop, which dominated aggregation time beyond a few hundred
groups.

SQL corner cases follow the seed semantics: a global aggregate over an empty
input yields ``count = 0`` and NaN for the other functions; numeric
aggregates are computed in ``float64``.  ``MIN``/``MAX`` over
dictionary-encoded string columns reduce the codes and decode the winners
(valid because the dictionary is sorted).
"""

from __future__ import annotations

from dataclasses import replace
from typing import AbstractSet, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ExecutionError
from repro.relalg.encoding import (
    ColumnData, DictEncodedArray, sort_key, stable_order, take_column,
)
from repro.relalg.relation import Relation
from repro.sql.ast import Aggregate, ColumnRef


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
        numeric = np.asarray(column).astype(np.float64)
        if aggregate.func == "sum":
            value = float(numeric.sum())
        elif aggregate.func == "avg":
            value = float(numeric.mean())
        elif aggregate.func == "min":
            value = float(numeric.min())
        else:
            value = float(numeric.max())
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
    numeric = np.asarray(sorted_column).astype(np.float64)
    if aggregate.func == "sum":
        return np.add.reduceat(numeric, group_starts)
    if aggregate.func == "avg":
        return np.add.reduceat(numeric, group_starts) / group_counts
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
#: Aggregate functions whose shard partials compose exactly for any column
#: type: counts add, winners compare — no floating-point accumulation order
#: is involved.
_ALWAYS_EXACT_PARTIALS = frozenset({"count", "min", "max"})


def partial_merge_exact(
    aggregates: Sequence[Aggregate],
    integer_columns: AbstractSet[Tuple[Optional[str], Optional[str]]],
) -> bool:
    """True when merging shard partials is bit-identical to single-node.

    ``count``/``min``/``max`` always compose exactly.  ``sum``/``avg``
    compose exactly only over *integer-typed* columns (``integer_columns``
    holds the query's ``(alias, column)`` pairs with schema type ``int``):
    integer-valued float64 sums below 2^53 are exact in any addition order,
    so shard sums add to the single-node sum bit for bit, and the decomposed
    average divides the same exact sum by the same exact count.  A float
    ``sum``/``avg`` depends on accumulation order and must instead take the
    gather path (merge raw fragments under the canonical row order, then
    aggregate once).
    """
    for aggregate in aggregates:
        if aggregate.func in ("sum", "avg"):
            if (aggregate.alias, aggregate.column) not in integer_columns:
                return False
        elif aggregate.func not in _ALWAYS_EXACT_PARTIALS:
            return False
    return True


#: Alias of the partial-state columns: state ``s`` of a shard partial is
#: column ``$.s``, so the merge reads it as an ordinary aggregate argument.
_STATE_ALIAS = "$"


def _partial_states(aggregates: Sequence[Aggregate]) -> List[Tuple[Aggregate, str]]:
    """Each partial state one shard computes, with the function merging it.

    ``avg`` decomposes into a ``$sum`` / ``$count`` state pair (re-divided
    after the merge); every other function is its own state.  Counts merge by
    summing, sums by summing, min/max winners by min/max.
    """
    states: List[Tuple[Aggregate, str]] = []
    for aggregate in aggregates:
        if aggregate.func == "avg":
            name = aggregate.output_name
            states.append(
                (Aggregate("sum", aggregate.alias, aggregate.column, f"{name}$sum"), "sum")
            )
            states.append((Aggregate("count", None, None, f"{name}$count"), "sum"))
        else:
            merge = "sum" if aggregate.func == "count" else aggregate.func
            states.append((aggregate, merge))
    return states


def partial_aggregate(
    relation: Relation,
    group_by: Sequence[ColumnRef],
    aggregates: Sequence[Aggregate],
) -> Relation:
    """One shard's partial-aggregate states over its fragment.

    Returns a relation of *decoded* group keys (object arrays for strings, so
    the states are independent of any per-shard dictionary) plus one
    ``$.<state>`` column per partial state: counts, sums, ``avg``'s ``$sum``
    / ``$count`` pair, and min/max winners.  A shard with no rows contributes
    no state rows, not even to a global (no ``group_by``) aggregate, whose
    single row would otherwise carry placeholder NaNs into the merge.
    """
    partial = group_aggregate(
        relation,
        group_by,
        [replace(state, output_name=f"{_STATE_ALIAS}.{state.output_name}")
         for state, _ in _partial_states(aggregates)],
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
    value.  It is value-exact for every composition
    :func:`partial_merge_exact` admits, so the result is bit-identical to
    aggregating the union of the shards' rows on one node.
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
        [Aggregate(merge, _STATE_ALIAS, state.output_name, state.output_name)
         for state, merge in _partial_states(aggregates)],
    )
    result = Relation(
        {f"{ref.alias}.{ref.column}": merged[f"{ref.alias}.{ref.column}"] for ref in group_by},
        num_rows=merged.num_rows,
    )
    for aggregate in aggregates:
        name = aggregate.output_name
        if aggregate.func == "avg":
            result[name] = np.asarray(merged[f"{name}$sum"]) / np.asarray(
                merged[f"{name}$count"]
            )
        elif aggregate.func == "count":
            # Counts merge as a float sum; a global merge of no state rows
            # sums to NaN, which counted zero rows.
            result[name] = np.nan_to_num(np.asarray(merged[name])).astype(np.int64)
        else:
            result[name] = merged[name]
    return result
