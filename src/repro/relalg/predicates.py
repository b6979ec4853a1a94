"""Compiled local-predicate evaluation.

This module replaces the per-call if/elif operator chains that used to be
duplicated between the executor kernels and the sampling estimator.  A
predicate is *compiled* once into a mask function; evaluation then runs the
minimal vectorised expression for the column representation at hand:

* plain numeric columns evaluate NumPy comparisons directly;
* dictionary-encoded string columns evaluate on the ``int32`` codes —
  equality becomes one integer compare against the value's code, range
  predicates use the sorted dictionary's boundary positions, ``IN`` becomes
  ``np.isin`` over a handful of codes.

Unknown operators raise :class:`~repro.errors.ExecutionError` (there is no
silent fallback; see the operator table in :data:`repro.sql.ast.COMPARISON_OPS`).
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ExecutionError
from repro.relalg.encoding import ColumnData, DictEncodedArray, slice_column
from repro.relalg.relation import (
    DEFAULT_MORSEL_ROWS,
    ChunkedRelation,
    Relation,
    RelationLike,
    as_relation,
)
from repro.relalg.scheduler import TaskScheduler
from repro.relalg.shm import ColumnDescriptor, attach_columns
from repro.sql.ast import LocalPredicate

#: A compiled predicate: runtime column → boolean mask.
MaskFn = Callable[[ColumnData], np.ndarray]

#: Below this many rows, morsel-parallel predicate evaluation is not worth
#: the task overhead: fall through to the single whole-column kernel.
_MIN_PARALLEL_FILTER_ROWS = 16_384


def _between_bounds(value: object) -> Tuple[object, object]:
    if not isinstance(value, (tuple, list)) or len(value) != 2:
        raise ExecutionError(
            f"BETWEEN expects a (low, high) pair of bounds, got {value!r}"
        )
    return value[0], value[1]


def _in_values(value: object) -> Sequence[object]:
    if not isinstance(value, (tuple, list, set, frozenset)):
        raise ExecutionError(f"IN expects a sequence of values, got {value!r}")
    return sorted(value) if isinstance(value, (set, frozenset)) else list(value)


def _encoded_mask(column: DictEncodedArray, op: str, value: object) -> np.ndarray:
    """Evaluate one operator against an encoded column (codes only).

    Equality-style operators treat a literal that cannot be compared with
    the dictionary (e.g. an integer against a string column) as "not
    present"; range operators raise :class:`ExecutionError` because an
    ordering against an incomparable bound is meaningless.
    """
    try:
        return _encoded_mask_inner(column, op, value)
    except TypeError as exc:
        raise ExecutionError(
            f"cannot compare {value!r} with a string column under {op!r}"
        ) from exc


def _encoded_mask_inner(column: DictEncodedArray, op: str, value: object) -> np.ndarray:
    codes = column.codes
    if op == "=":
        code = column.code_for(value)
        if code is None:
            return np.zeros(len(codes), dtype=bool)
        return codes == code
    if op == "<>":
        code = column.code_for(value)
        if code is None:
            return np.ones(len(codes), dtype=bool)
        return codes != code
    if op == "<":
        return codes < column.boundary_code(value, "left")
    if op == "<=":
        return codes < column.boundary_code(value, "right")
    if op == ">":
        return codes >= column.boundary_code(value, "right")
    if op == ">=":
        return codes >= column.boundary_code(value, "left")
    if op == "in":
        wanted = [column.code_for(v) for v in _in_values(value)]
        wanted_codes = np.array([c for c in wanted if c is not None], dtype=np.int32)
        if len(wanted_codes) == 0:
            return np.zeros(len(codes), dtype=bool)
        return np.isin(codes, wanted_codes)
    if op == "between":
        low, high = _between_bounds(value)
        return (codes >= column.boundary_code(low, "left")) & (
            codes < column.boundary_code(high, "right")
        )
    raise ExecutionError(f"unsupported operator {op!r}")


def _plain_mask(values: np.ndarray, op: str, value: object) -> np.ndarray:
    """Evaluate one operator against a plain array.

    Like :func:`_encoded_mask`, an ordering against an incomparable literal
    surfaces as :class:`ExecutionError` rather than a raw NumPy error.
    """
    try:
        return _plain_mask_inner(values, op, value)
    except TypeError as exc:
        raise ExecutionError(
            f"cannot compare {value!r} with column values under {op!r}"
        ) from exc


def _plain_mask_inner(values: np.ndarray, op: str, value: object) -> np.ndarray:
    if op == "=":
        return values == value
    if op == "<>":
        return values != value
    if op == "<":
        return values < value
    if op == "<=":
        return values <= value
    if op == ">":
        return values > value
    if op == ">=":
        return values >= value
    if op == "in":
        # OR of per-candidate equality masks (mirrors the encoded path, which
        # probes each literal individually): np.isin would coerce a
        # mixed-type candidate list to strings and match nothing.
        mask = np.zeros(len(values), dtype=bool)
        for candidate in _in_values(value):
            equal = np.asarray(values == candidate)
            if equal.shape == mask.shape:
                mask |= equal
        return mask
    if op == "between":
        low, high = _between_bounds(value)
        return (values >= low) & (values <= high)
    raise ExecutionError(f"unsupported operator {op!r}")


def compile_predicate(predicate: LocalPredicate) -> MaskFn:
    """Compile one local predicate into a reusable mask function."""
    op, value = predicate.op, predicate.value

    def mask(column: ColumnData) -> np.ndarray:
        if isinstance(column, DictEncodedArray):
            return _encoded_mask(column, op, value)
        return _plain_mask(column, op, value)

    return mask


#: ``_predicate_mask_task`` payload: shared predicate-column descriptors,
#: this morsel's row window, and the (picklable) predicate specs.
PredicateMaskPayload = Tuple[
    Tuple[Tuple[str, ColumnDescriptor], ...],
    int,
    int,
    Tuple[Tuple[str, LocalPredicate], ...],
]


def _predicate_mask_task(payload: PredicateMaskPayload) -> np.ndarray:
    """Kernel task body: evaluate one morsel's conjunction mask (worker process).

    The payload carries shared-memory descriptors for the predicate columns,
    this morsel's ``(start, stop)`` row window, and the (picklable)
    :class:`LocalPredicate` specs, which the worker compiles — predicate
    evaluation is elementwise, so the per-morsel mask equals the matching
    slice of the whole-column mask bit-for-bit.  Must stay a picklable
    top-level function.
    """
    columns_desc, start, stop, spec = payload
    columns = attach_columns(columns_desc)
    mask = np.ones(stop - start, dtype=bool)
    for key, predicate in spec:
        mask &= compile_predicate(predicate)(slice_column(columns[key], start, stop))
    return mask


def predicate_mask(
    relation: Relation,
    alias: str,
    predicates: Sequence[LocalPredicate],
    scheduler: Optional[TaskScheduler] = None,
    morsel_rows: int = DEFAULT_MORSEL_ROWS,
    stage: Optional[str] = None,
) -> np.ndarray:
    """Conjunction mask of ``predicates`` over ``relation``'s rows.

    With a parallel ``scheduler`` and a large enough relation, the mask is
    computed one morsel task at a time as shared-memory kernel tasks
    (:func:`_predicate_mask_task`) and concatenated in morsel order.
    Predicate evaluation is elementwise, so the chunked mask is bit-identical
    to the whole-column one.  A ``stage`` label opts into adaptive morsel
    sizing (omit it to pin ``morsel_rows`` exactly).
    """
    compiled = []
    for predicate in predicates:
        key = f"{alias}.{predicate.column}"
        if key not in relation:
            raise ExecutionError(f"column {key!r} missing during predicate evaluation")
        compiled.append((key, compile_predicate(predicate)))

    if scheduler is not None and stage is not None:
        morsel_rows = scheduler.adaptive_morsel_rows(stage, morsel_rows)
    if (
        scheduler is not None
        and scheduler.parallel
        and compiled
        and relation.num_rows >= _MIN_PARALLEL_FILTER_ROWS
    ):
        chunked = ChunkedRelation(relation, morsel_rows)
        if chunked.num_morsels > 1:
            # Publish each predicate column once; every morsel task ships
            # descriptors plus its row window.
            spec = tuple(
                (f"{alias}.{predicate.column}", predicate) for predicate in predicates
            )
            with scheduler.new_arena() as arena:
                columns_desc = tuple(
                    (key, arena.share_column(relation[key]))
                    for key in sorted({key for key, _ in compiled})
                )
                payloads = [
                    (columns_desc, start, stop, spec) for start, stop in chunked.bounds
                ]
                return np.concatenate(
                    scheduler.map_kernel(_predicate_mask_task, payloads, stage=stage)
                )

    mask = np.ones(relation.num_rows, dtype=bool)
    for key, mask_fn in compiled:
        mask &= mask_fn(relation[key])
    return mask


def filter_relation(
    relation: RelationLike,
    alias: str,
    predicates: Sequence[LocalPredicate],
    scheduler: Optional[TaskScheduler] = None,
    morsel_rows: int = DEFAULT_MORSEL_ROWS,
    stage: Optional[str] = None,
    keep: Optional[Iterable[str]] = None,
) -> Relation:
    """Filter a relation by a conjunction of local predicates on ``alias``.

    ``keep`` names the (qualified) columns of the result; columns read only
    by the predicates are then never gathered.  ``None`` keeps every column.
    """
    relation = as_relation(relation)
    carried = relation if keep is None else relation.project(keep)
    if not predicates:
        return carried
    return carried.select(
        predicate_mask(relation, alias, predicates, scheduler, morsel_rows, stage)
    )
