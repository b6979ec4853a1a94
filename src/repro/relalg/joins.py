"""Equi-join kernels: hash, sort-merge, block nested-loop and index probe.

The first three kernels share one *factorization* step
(:func:`repro.relalg.encoding.factorize_pair`): each join-key pair is mapped
onto a common integer code domain — dictionary-encoded strings stay in code
space, dense integer keys are direct-addressed (``key - min``), only sparse
or non-integer keys are sorted — and multi-column keys are combined into a
single composite ``int64`` code (Horner scheme over the per-key domains).
They then differ in how codes are matched:

* :func:`hash_join` — build a table with one slot per code from the right
  side and probe it with the left codes.  When no right code repeats (every
  PK–FK join) a slot holds the right row itself and the probe is one gather;
  otherwise slots are buckets (``np.bincount`` + one stable counting sort).
  The *orientation rule*: that sort is of the right input, unless
  ``left rows + matches < right rows`` — then the sides are swapped, so only
  the left input and the output pairs are sorted.
* :func:`merge_join` — sort the right codes and binary-search the left codes
  (``np.searchsorted``): the sort-based path, equivalent to the seed kernel.
* :func:`nested_loop_join` — block-wise outer × inner comparison, O(n·m)
  work by construction; the reference kernel the property tests compare the
  other two against, and the cost-model's nested-loop profile.

:func:`index_nested_loop_join` skips factorization altogether: it probes the
catalog's sorted index on the inner key (``searchsorted`` over the outer
keys), so its work follows the outer side alone.

One density rule (:func:`repro.relalg.encoding.fits_direct_table`) decides
both whether integer keys are direct-addressed and whether the hash table is
sized by the code domain; inputs that fail it are sorted instead.  Every
kernel emits pairs by ascending left row, ties by ascending right row, so the
path taken never shows in the output.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, AbstractSet, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.relalg.encoding import ColumnData, factorize_pair, fits_direct_table, take_column
from repro.relalg.relation import Relation
from repro.sql.ast import JoinPredicate

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.storage.index import SortedIndex

#: Composite keys stop growing once the combined domain would overflow int64;
#: remaining predicates are applied as residual filters on the matched pairs.
_MAX_COMPOSITE_DOMAIN = 2**62

#: Default element budget for one block of the nested-loop comparison matrix
#: (overridable per call through ``block_elements``).
_NESTED_LOOP_BLOCK_ELEMENTS = 4_000_000


def _key_columns(
    left: Relation,
    right: Relation,
    predicate: JoinPredicate,
    left_aliases: FrozenSet[str],
) -> Tuple[ColumnData, ColumnData]:
    """The (left, right) key columns of one predicate, oriented by side."""
    if predicate.left_alias in left_aliases:
        return (
            left[f"{predicate.left_alias}.{predicate.left_column}"],
            right[f"{predicate.right_alias}.{predicate.right_column}"],
        )
    return (
        left[f"{predicate.right_alias}.{predicate.right_column}"],
        right[f"{predicate.left_alias}.{predicate.left_column}"],
    )


def _composite_codes(
    left: Relation,
    right: Relation,
    predicates: Sequence[JoinPredicate],
    left_aliases: FrozenSet[str],
) -> Tuple[np.ndarray, np.ndarray, int, List[JoinPredicate]]:
    """Factorize the join keys into one shared composite code per side.

    Returns ``(left_codes, right_codes, domain, residual_predicates)`` where
    ``residual_predicates`` are key pairs that did not fit into the composite
    domain and must be checked on the matched pairs afterwards.
    """
    left_col, right_col = _key_columns(left, right, predicates[0], left_aliases)
    left_codes, right_codes, domain = factorize_pair(left_col, right_col)
    residual: List[JoinPredicate] = []
    for predicate in predicates[1:]:
        left_col, right_col = _key_columns(left, right, predicate, left_aliases)
        codes_l, codes_r, pair_domain = factorize_pair(left_col, right_col)
        if pair_domain <= 0 or domain * pair_domain >= _MAX_COMPOSITE_DOMAIN:
            residual.append(predicate)
            continue
        left_codes = left_codes * pair_domain + codes_l
        right_codes = right_codes * pair_domain + codes_r
        domain *= pair_domain
    return left_codes, right_codes, domain, residual


def _apply_residual(
    left: Relation,
    right: Relation,
    residual: Sequence[JoinPredicate],
    left_aliases: FrozenSet[str],
    left_index: np.ndarray,
    right_index: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Filter matched pairs by equality on the residual key pairs."""
    for predicate in residual:
        left_col, right_col = _key_columns(left, right, predicate, left_aliases)
        codes_l, codes_r, _ = factorize_pair(
            take_column(left_col, left_index), take_column(right_col, right_index)
        )
        keep = codes_l == codes_r
        left_index = left_index[keep]
        right_index = right_index[keep]
    return left_index, right_index


def _empty_indices() -> Tuple[np.ndarray, np.ndarray]:
    return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)


def _expand_matches(
    left_rows: int,
    match_counts: np.ndarray,
    match_starts: np.ndarray,
    right_order: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Expand per-left-row match runs into aligned (left, right) index arrays.

    ``match_counts[i]`` right rows match left row ``i``; they sit at
    ``right_order[match_starts[i] : match_starts[i] + match_counts[i]]``.
    """
    total = int(match_counts.sum())
    left_index = np.repeat(np.arange(left_rows), match_counts)
    if total == 0:
        return left_index, np.empty(0, dtype=np.int64)
    output_offsets = np.concatenate(([0], np.cumsum(match_counts)[:-1]))
    positions = np.arange(total) - np.repeat(output_offsets, match_counts)
    right_index = right_order[np.repeat(match_starts, match_counts) + positions]
    return left_index, right_index


def hash_match(
    left_codes: np.ndarray, right_codes: np.ndarray, domain: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Match codes in ``[0, domain)`` through a table with one slot per code.

    A domain that fails :func:`~repro.relalg.encoding.fits_direct_table`
    (huge, sparse composite keys) is first re-factorized so the table stays
    proportional to the data.  If no right code repeats, the table holds right
    row ids and the probe is one gather; otherwise it holds buckets over a
    stable counting sort of the right rows — or, when ``left rows + matches <
    right rows``, of the left rows, with one stable argsort of the output on
    the left index in place of the sort of the right input.  Either way pairs
    come out by ascending left row, ties by ascending right row.
    """
    left_rows, right_rows = len(left_codes), len(right_codes)
    if left_rows == 0 or right_rows == 0:
        return _empty_indices()
    if not fits_direct_table(domain, left_rows, right_rows):
        left_codes, right_codes, domain = factorize_pair(left_codes, right_codes)
    bucket_counts = np.bincount(right_codes, minlength=domain)
    if bucket_counts.max() <= 1:
        positions = np.full(domain, -1, dtype=np.int64)
        positions[right_codes] = np.arange(right_rows)
        right_index = positions[left_codes]
        left_index = np.flatnonzero(right_index >= 0)
        return left_index, right_index[left_index]
    match_counts = bucket_counts[left_codes]
    if left_rows < right_rows and left_rows + int(match_counts.sum()) < right_rows:
        # Orientation rule: swapped, pairs come by right row, ties by left
        # row — a stable sort on the left index restores the one order.
        right_index, left_index = hash_match(right_codes, left_codes, domain)
        order = np.argsort(left_index, kind="stable")
        return left_index[order], right_index[order]
    bucket_order = np.argsort(right_codes, kind="stable")
    bucket_starts = np.concatenate(([0], np.cumsum(bucket_counts)[:-1]))
    return _expand_matches(
        left_rows, match_counts, bucket_starts[left_codes], bucket_order
    )


def merge_match(
    left_codes: np.ndarray, right_codes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Match codes by sorting the right side and binary-searching the left."""
    left_rows, right_rows = len(left_codes), len(right_codes)
    if left_rows == 0 or right_rows == 0:
        return _empty_indices()
    order = np.argsort(right_codes, kind="stable")
    sorted_right = right_codes[order]
    starts = np.searchsorted(sorted_right, left_codes, side="left")
    ends = np.searchsorted(sorted_right, left_codes, side="right")
    return _expand_matches(left_rows, ends - starts, starts, order)


def nested_loop_match(
    left_codes: np.ndarray,
    right_codes: np.ndarray,
    block_elements: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Match codes by comparing every (left, right) pair, in blocks.

    ``block_elements`` bounds the size of one comparison-matrix block
    (defaults to :data:`_NESTED_LOOP_BLOCK_ELEMENTS`); it trades peak memory
    against per-block NumPy dispatch overhead.
    """
    left_rows, right_rows = len(left_codes), len(right_codes)
    if left_rows == 0 or right_rows == 0:
        return _empty_indices()
    if block_elements is None:
        block_elements = _NESTED_LOOP_BLOCK_ELEMENTS
    block = max(1, block_elements // max(1, right_rows))
    left_parts: List[np.ndarray] = []
    right_parts: List[np.ndarray] = []
    for start in range(0, left_rows, block):
        equal = left_codes[start : start + block, None] == right_codes[None, :]
        block_left, block_right = np.nonzero(equal)
        left_parts.append(block_left + start)
        right_parts.append(block_right)
    return np.concatenate(left_parts), np.concatenate(right_parts)


def _cross_indices(left_rows: int, right_rows: int) -> Tuple[np.ndarray, np.ndarray]:
    return (
        np.repeat(np.arange(left_rows), right_rows),
        np.tile(np.arange(right_rows), left_rows),
    )


def _materialise(
    left: Relation,
    right: Relation,
    left_index: np.ndarray,
    right_index: np.ndarray,
    keep: Optional[AbstractSet[str]] = None,
) -> Relation:
    """Gather the matched rows — the one place any join kernel builds output.

    ``keep`` names the columns the result carries (``None`` = every column of
    both sides); a join key nothing later reads is matched on and never
    gathered.
    """
    return Relation(
        {
            name: take_column(column, index)
            for side, index in ((left, left_index), (right, right_index))
            for name, column in side.items()
            if keep is None or name in keep
        },
        num_rows=len(left_index),
    )


def join_indices(
    left: Relation,
    right: Relation,
    predicates: Sequence[JoinPredicate],
    left_aliases: FrozenSet[str],
    method: str = "hash",
    nested_loop_block_elements: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Row-index pairs the join of ``left`` and ``right`` produces."""
    if left.num_rows == 0 or right.num_rows == 0:
        return _empty_indices()
    if not predicates:
        return _cross_indices(left.num_rows, right.num_rows)
    left_codes, right_codes, domain, residual = _composite_codes(
        left, right, predicates, left_aliases
    )
    if method == "hash":
        left_index, right_index = hash_match(left_codes, right_codes, domain)
    elif method == "merge":
        left_index, right_index = merge_match(left_codes, right_codes)
    elif method == "nested_loop":
        left_index, right_index = nested_loop_match(
            left_codes, right_codes, nested_loop_block_elements
        )
    else:
        raise ValueError(f"unknown join kernel {method!r}")
    if residual:
        left_index, right_index = _apply_residual(
            left, right, residual, left_aliases, left_index, right_index
        )
    return left_index, right_index


def _join(
    left: Relation,
    right: Relation,
    predicates: Sequence[JoinPredicate],
    left_aliases: FrozenSet[str],
    method: str,
    nested_loop_block_elements: Optional[int] = None,
    keep: Optional[AbstractSet[str]] = None,
) -> Relation:
    left_index, right_index = join_indices(
        left, right, predicates, left_aliases, method, nested_loop_block_elements
    )
    return _materialise(left, right, left_index, right_index, keep)


def hash_join(
    left: Relation,
    right: Relation,
    predicates: Sequence[JoinPredicate],
    left_aliases: FrozenSet[str],
    keep: Optional[AbstractSet[str]] = None,
) -> Relation:
    """Hash-based equi-join (factorize → build code table → probe)."""
    return _join(left, right, predicates, left_aliases, "hash", keep=keep)


def merge_join(
    left: Relation,
    right: Relation,
    predicates: Sequence[JoinPredicate],
    left_aliases: FrozenSet[str],
    keep: Optional[AbstractSet[str]] = None,
) -> Relation:
    """Sort-merge equi-join (factorize → sort → binary search)."""
    return _join(left, right, predicates, left_aliases, "merge", keep=keep)


def nested_loop_join(
    left: Relation,
    right: Relation,
    predicates: Sequence[JoinPredicate],
    left_aliases: FrozenSet[str],
    block_elements: Optional[int] = None,
    keep: Optional[AbstractSet[str]] = None,
) -> Relation:
    """Block nested-loop equi-join (reference kernel, O(n·m) comparisons)."""
    return _join(left, right, predicates, left_aliases, "nested_loop", block_elements, keep)


def index_nested_loop_join(
    left: Relation,
    right: Relation,
    left_keys: np.ndarray,
    index: "SortedIndex",
    keep: Optional[AbstractSet[str]] = None,
) -> Relation:
    """Index nested-loop equi-join: probe the inner table's sorted index.

    ``right`` is the *unfiltered* base table ``index`` was built on (relation
    row ``i`` is base row ``i``) and ``left_keys`` the outer side's plain
    integer key column.  One ``searchsorted`` pair over the outer keys finds
    each key's run in the index — O(outer · log inner), no build and no pass
    over the inner — and the index's stable order already lists a run's rows
    ascending, so the pairs come out in the kernels' one order.  An inner scan
    with local predicates is not mapped through a selection vector: such a
    node keeps the hash kernel (see ``Executor._index_probe``).
    """
    starts, counts = index.probe(left_keys)
    left_index, right_index = _expand_matches(left.num_rows, counts, starts, index.rows)
    return _materialise(left, right, left_index, right_index, keep)


#: Kept only because the frozen benchmark's span list (``perfbench/spans.py``)
#: resolves this name; every hash join is the serial kernel.
parallel_hash_join = hash_join
