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

from typing import AbstractSet, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ExecutionError
from repro.relalg.encoding import ColumnData, DictEncodedArray, sort_key, take_column
from repro.relalg.relation import (
    DEFAULT_MORSEL_ROWS,
    Relation,
    RelationLike,
    as_relation,
)
from repro.relalg.scheduler import TaskScheduler
from repro.relalg.shm import ArrayDescriptor, ColumnDescriptor, attach_array, attach_columns
from repro.sql.ast import Aggregate, ColumnRef

#: Below this many input rows the parallel aggregation path is not worth the
#: task overhead: fall through to the serial reduceat.
_MIN_PARALLEL_AGG_ROWS = 16_384


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


def _group_chunks(
    group_starts: np.ndarray, rows: int, morsel_rows: int
) -> List[Tuple[int, int]]:
    """Split the group list into group-aligned chunks of ≈ ``morsel_rows`` rows.

    Chunk boundaries always coincide with group boundaries, so every group's
    values stay inside one chunk — the property that makes the per-chunk
    ``reduceat`` partials bit-identical to the full-column serial reduction
    (a ``reduceat`` segment accumulates only within itself, so splitting the
    array *between* segments changes nothing).  The chunk grid depends only
    on the data and ``morsel_rows``, never on the worker count.
    """
    chunks: List[Tuple[int, int]] = []
    num_groups = len(group_starts)
    lo = 0
    while lo < num_groups:
        target = int(group_starts[lo]) + morsel_rows
        hi = int(np.searchsorted(group_starts, target, side="left"))
        hi = max(hi, lo + 1)
        chunks.append((lo, hi))
        lo = hi
    return chunks


#: ``_aggregate_chunk_task`` payload: shared descriptors for the value
#: columns / sort order / group boundaries, this chunk's group and row
#: windows, and the (picklable) aggregate specs.
AggregateChunkPayload = Tuple[
    Tuple[Tuple[str, ColumnDescriptor], ...],
    ArrayDescriptor,
    ArrayDescriptor,
    ArrayDescriptor,
    int,
    int,
    int,
    int,
    Tuple[Aggregate, ...],
]


def _aggregate_chunk_task(payload: AggregateChunkPayload) -> Dict[str, np.ndarray]:
    """Kernel task body: reduce one group-aligned chunk (worker process).

    The payload carries shared-memory descriptors for the value columns, the
    sort order and the group boundary arrays, plus this chunk's group and row
    windows; the worker attaches zero-copy views, gathers the chunk's sorted
    values and runs the same per-group ``reduceat`` reductions as the serial
    path.  Partials are fresh arrays (gather + reduce output), safe to ship
    back through the result queue.  Must stay a picklable top-level function.
    """
    (
        columns_desc,
        order_desc,
        starts_desc,
        counts_desc,
        lo,
        hi,
        row_lo,
        row_hi,
        aggregates,
    ) = payload
    columns = attach_columns(columns_desc)
    order = attach_array(order_desc)
    group_starts = attach_array(starts_desc)
    group_counts = attach_array(counts_desc)
    indices = order[row_lo:row_hi]
    starts_local = group_starts[lo:hi] - row_lo
    counts_local = group_counts[lo:hi]
    gathered: Dict[str, ColumnData] = {}
    partials: Dict[str, np.ndarray] = {}
    for aggregate in aggregates:
        sorted_column: Optional[ColumnData] = None
        if aggregate.column is not None:
            name = f"{aggregate.alias}.{aggregate.column}"
            if name not in gathered:
                gathered[name] = take_column(columns[name], indices)
            sorted_column = gathered[name]
        partials[aggregate.output_name] = _grouped_values(
            aggregate, sorted_column, starts_local, counts_local
        )
    return partials


def _parallel_grouped(
    relation: Relation,
    aggregates: Sequence[Aggregate],
    order: np.ndarray,
    group_starts: np.ndarray,
    group_counts: np.ndarray,
    rows: int,
    result: Relation,
    scheduler: TaskScheduler,
    chunks: Sequence[Tuple[int, int]],
    stage: Optional[str] = None,
) -> Relation:
    """Aggregate values chunk-parallel: per-morsel partials, concatenated merge.

    Each task gathers the sorted values of one group-aligned chunk and runs
    the same ``reduceat`` reductions the serial path runs on the full column;
    the merge concatenates the per-chunk partials in chunk order.  Because
    ``chunks`` are group-aligned (see :func:`_group_chunks`), the merged
    output is bit-identical to the serial path — including float
    ``sum``/``avg``, whose accumulation order per group is unchanged.

    The value columns, sort order and group boundaries are published to
    shared memory once; each chunk task ships descriptors plus its group and
    row windows, and returns its partials.
    """
    num_groups = len(group_starts)
    needed = sorted(
        {
            f"{aggregate.alias}.{aggregate.column}"
            for aggregate in aggregates
            if aggregate.column is not None
        }
    )
    aggregates = tuple(aggregates)
    with scheduler.new_arena() as arena:
        columns_desc = tuple(
            (name, arena.share_column(relation[name])) for name in needed
        )
        order_desc = arena.share_array(order)
        starts_desc = arena.share_array(group_starts)
        counts_desc = arena.share_array(group_counts)
        payloads = []
        for lo, hi in chunks:
            row_lo = int(group_starts[lo])
            row_hi = int(group_starts[hi]) if hi < num_groups else rows
            payloads.append(
                (
                    columns_desc,
                    order_desc,
                    starts_desc,
                    counts_desc,
                    lo,
                    hi,
                    row_lo,
                    row_hi,
                    aggregates,
                )
            )
        chunk_partials = scheduler.map_kernel(
            _aggregate_chunk_task, payloads, stage=stage
        )
    for aggregate in aggregates:
        result[aggregate.output_name] = np.concatenate(
            [partials[aggregate.output_name] for partials in chunk_partials]
        )
    return result


def group_aggregate(
    relation: RelationLike,
    group_by: Sequence[ColumnRef],
    aggregates: Sequence[Aggregate],
    scheduler: Optional[TaskScheduler] = None,
    morsel_rows: int = DEFAULT_MORSEL_ROWS,
    stage: Optional[str] = None,
) -> Relation:
    """Grouped aggregation over a runtime relation (vectorised).

    With a parallel ``scheduler`` and a large enough input, the value
    gathering and per-group reductions run as group-aligned shared-memory
    kernel tasks (:func:`_aggregate_chunk_task`) on the shared worker pool;
    the output is bit-identical to the serial path (see
    :func:`_parallel_grouped`).  Key grouping (one lexsort) stays serial — it
    is a single deterministic kernel either way.  A ``stage`` label opts into
    adaptive morsel sizing: the scheduler grows this stage's chunk rows until
    per-task overhead is under target (callers that pin an exact
    ``morsel_rows``, like the bit-identity sweeps, simply omit it).
    """
    relation = as_relation(relation)
    rows = relation.num_rows
    if scheduler is not None and stage is not None:
        morsel_rows = scheduler.adaptive_morsel_rows(stage, morsel_rows)
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

    # Group ids via one lexsort over the key columns (codes for encoded ones).
    try:
        order = np.lexsort(tuple(reversed([sort_key(column) for column in key_columns])))
    except TypeError as exc:
        raise ExecutionError(
            f"cannot group by column(s) {key_names} containing unorderable values"
        ) from exc
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
    if (
        scheduler is not None
        and scheduler.parallel
        and rows >= _MIN_PARALLEL_AGG_ROWS
        and len(group_starts) > 1
        and aggregates
    ):
        chunks = _group_chunks(group_starts, rows, morsel_rows)
        if len(chunks) > 1:
            return _parallel_grouped(
                relation,
                aggregates,
                order,
                group_starts,
                group_counts,
                rows,
                result,
                scheduler,
                chunks,
                stage,
            )
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


def _decomposed_partials(aggregates: Sequence[Aggregate]) -> List[Aggregate]:
    """The partial-state aggregates one shard computes.

    ``avg`` decomposes into a ``$sum`` / ``$count`` column pair (re-divided
    after the merge); every other function is its own partial state.
    """
    decomposed: List[Aggregate] = []
    for aggregate in aggregates:
        if aggregate.func == "avg":
            decomposed.append(
                Aggregate(
                    "sum", aggregate.alias, aggregate.column,
                    f"{aggregate.output_name}$sum",
                )
            )
            decomposed.append(
                Aggregate("count", None, None, f"{aggregate.output_name}$count")
            )
        else:
            decomposed.append(aggregate)
    return decomposed


def partial_aggregate(
    relation: RelationLike,
    group_by: Sequence[ColumnRef],
    aggregates: Sequence[Aggregate],
) -> Relation:
    """One shard's partial-aggregate state over its fragment.

    Returns a relation of *decoded* group keys (object arrays for strings, so
    the state is independent of any per-shard dictionary) plus one partial
    column per decomposed aggregate: counts, sums, ``avg``'s ``$sum`` /
    ``$count`` pair, and min/max winners.  A global (no ``group_by``) partial
    is a single row carrying an extra ``$rows`` column so the merge can tell
    an empty shard's placeholder NaNs from real values.
    """
    relation = as_relation(relation)
    partial = group_aggregate(relation, group_by, _decomposed_partials(aggregates))
    if not group_by:
        partial["$rows"] = np.array([relation.num_rows], dtype=np.int64)
        return partial
    # Group keys leave the shard in value space: dictionaries are per-shard.
    return partial.decoded()


def _merge_global_partials(
    parts: Sequence[Relation], aggregates: Sequence[Aggregate]
) -> Relation:
    """Merge single-row global partials (caller passes sorted shard order)."""
    result = Relation(num_rows=1)
    valid = [part for part in parts if int(np.asarray(part["$rows"])[0]) > 0]
    for aggregate in aggregates:
        func = aggregate.func
        if func == "count":
            total = sum(int(np.asarray(part[aggregate.output_name])[0]) for part in parts)
            result[aggregate.output_name] = np.array([total], dtype=np.int64)
            continue
        if not valid:
            # Every shard was empty: same NaN placeholder as single-node.
            result[aggregate.output_name] = np.array([float("nan")])
            continue
        if func == "sum":
            sums = np.array(
                [float(np.asarray(part[aggregate.output_name])[0]) for part in valid]
            )
            result[aggregate.output_name] = np.array([float(sums.sum())])
        elif func == "avg":
            sums = np.array(
                [
                    float(np.asarray(part[f"{aggregate.output_name}$sum"])[0])
                    for part in valid
                ]
            )
            counts = sum(
                int(np.asarray(part[f"{aggregate.output_name}$count"])[0])
                for part in valid
            )
            result[aggregate.output_name] = np.array([float(sums.sum()) / counts])
        elif func in ("min", "max"):
            chooser = min if func == "min" else max
            values = [np.asarray(part[aggregate.output_name])[0] for part in valid]
            if any(isinstance(value, str) for value in values):
                winner = np.empty(1, dtype=object)
                winner[0] = chooser(values)
                result[aggregate.output_name] = winner
            else:
                result[aggregate.output_name] = np.array(
                    [float(chooser(float(value) for value in values))]
                )
        else:
            raise ExecutionError(f"unsupported aggregate function {func!r}")
    return result


def merge_partials(
    partials: Sequence[RelationLike],
    group_by: Sequence[ColumnRef],
    aggregates: Sequence[Aggregate],
) -> Relation:
    """Merge per-shard partial aggregates into the single-node result.

    ``partials`` must be supplied in canonical (sorted shard-id) order —
    the merge is value-exact for every composition :func:`partial_merge_exact`
    admits, but a deterministic input order keeps the whole pipeline
    reproducible byte for byte.  Groups are re-sorted by key value, which is
    exactly the order the single-node ``group_aggregate`` emits (its sorted
    dictionaries make code order agree with value order), so the merged
    relation is bit-identical to aggregating the union fragment on one node.
    """
    parts = [as_relation(part) for part in partials]
    if not parts:
        raise ExecutionError("merge_partials requires at least one shard partial")
    if not group_by:
        return _merge_global_partials(parts, aggregates)

    key_names = [f"{ref.alias}.{ref.column}" for ref in group_by]
    nonempty = [part for part in parts if part.num_rows > 0]
    if not nonempty:
        empty_indices = np.empty(0, dtype=np.int64)
        result = Relation(num_rows=0)
        for name in key_names:
            result[name] = np.asarray(parts[0][name])[empty_indices]
        for aggregate in aggregates:
            if aggregate.func == "count":
                result[aggregate.output_name] = np.empty(0, dtype=np.int64)
            elif aggregate.func == "avg":
                result[aggregate.output_name] = np.empty(0, dtype=np.float64)
            else:
                source = np.asarray(parts[0][aggregate.output_name])
                result[aggregate.output_name] = source[empty_indices]
        return result

    names = list(nonempty[0].keys())
    columns: Dict[str, np.ndarray] = {
        name: np.concatenate([np.asarray(part[name]) for part in nonempty])
        for name in names
    }
    total = int(columns[key_names[0]].shape[0])
    # Sort keys in value order; object keys go through a sorted dictionary so
    # the lexsort runs on int32 codes (and matches single-node key order).
    sort_columns: List[np.ndarray] = []
    for name in key_names:
        column = columns[name]
        if column.dtype == object:
            sort_columns.append(DictEncodedArray.encode(column).codes)
        else:
            sort_columns.append(column)
    order = np.lexsort(tuple(reversed(sort_columns)))
    sorted_sort_keys = [column[order] for column in sort_columns]
    changes = np.zeros(total, dtype=bool)
    changes[0] = True
    for key in sorted_sort_keys:
        changes[1:] |= key[1:] != key[:-1]
    group_starts = np.nonzero(changes)[0]

    result = Relation(num_rows=len(group_starts))
    for name in key_names:
        result[name] = columns[name][order][group_starts]
    for aggregate in aggregates:
        func = aggregate.func
        if func == "count":
            result[aggregate.output_name] = np.add.reduceat(
                columns[aggregate.output_name][order], group_starts
            ).astype(np.int64, copy=False)
        elif func == "sum":
            result[aggregate.output_name] = np.add.reduceat(
                columns[aggregate.output_name][order], group_starts
            )
        elif func == "avg":
            sums = np.add.reduceat(
                columns[f"{aggregate.output_name}$sum"][order], group_starts
            )
            counts = np.add.reduceat(
                columns[f"{aggregate.output_name}$count"][order], group_starts
            )
            result[aggregate.output_name] = sums / counts
        elif func in ("min", "max"):
            values = columns[aggregate.output_name][order]
            reducer = np.minimum if func == "min" else np.maximum
            if values.dtype == object:
                # String winners: reduce sorted-dictionary codes, decode.
                encoded = DictEncodedArray.encode(values)
                winners = reducer.reduceat(encoded.codes, group_starts)
                result[aggregate.output_name] = encoded.dictionary[winners]
            else:
                result[aggregate.output_name] = reducer.reduceat(values, group_starts)
        else:
            raise ExecutionError(f"unsupported aggregate function {func!r}")
    return result
