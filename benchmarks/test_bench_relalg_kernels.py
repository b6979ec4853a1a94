"""Micro-benchmarks for the relalg kernels vs. the seed implementations.

Records join / aggregation throughput for the shared relational-algebra core
(:mod:`repro.relalg`) and compares against inline copies of the *seed*
kernels this PR replaced:

* string-keyed equi-join — the seed sorted NumPy object arrays; relalg joins
  dictionary-encoded ``int32`` codes;
* grouped aggregation — the seed looped over groups in Python; relalg uses
  ``np.add.reduceat`` over sorted group boundaries;
* stable sort permutations — the seed called ``np.argsort(kind="stable")``
  and ``np.lexsort``; relalg builds the same permutation from ``uint16``
  radix passes (``encoding.stable_order``);
* float ``SUM`` — bit-identity once took a canonical sort of the rows by
  (group, value) before a row-order ``reduceat``; relalg sums each group
  correctly rounded in any order (``aggregate.exact_group_sums``).

The assertions hold the relalg kernels to the seed kernels' results; the
printed lines are the throughput record (run with ``pytest -s``).  Wall-clock
claims live in ``perfbench`` (``BENCHMARK.json``), not here.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Dict, Sequence

import numpy as np

from repro.relalg import DictEncodedArray, Relation, group_aggregate, hash_join
from repro.relalg.aggregate import exact_group_sums
from repro.relalg.encoding import stable_order
from repro.sql.ast import Aggregate, ColumnRef, JoinPredicate

#: Rows per side of the string-keyed join benchmark.
JOIN_ROWS = 60_000
#: Distinct string keys in the join benchmark.
JOIN_KEYS = 20_000
#: Rows / groups of the aggregation benchmark.
AGG_ROWS = 200_000
AGG_GROUPS = 10_000
#: Rows and code domain of star_parallel's duplicate-build join; the
#: canonical order there sorts a float column, ties by an int < 5,000.
STAR_JOIN_ROWS = 171_000
STAR_JOIN_DOMAIN = 150_000
STAR_GROUPS = 5_000
#: Rows reaching star_parallel's aggregate.
STAR_AGG_ROWS = 180_000


def _best_seconds(fn: Callable[[], object], repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


# --------------------------------------------------------------------- #
# Seed kernels (inline reference copies of the pre-relalg implementations)
# --------------------------------------------------------------------- #
def _seed_equi_join(
    left: Dict[str, np.ndarray],
    right: Dict[str, np.ndarray],
    left_key: str,
    right_key: str,
) -> int:
    """The seed's sort + binary-search join over raw (object) arrays."""
    left_rows = len(next(iter(left.values())))
    left_key_values = left[left_key]
    right_key_values = right[right_key]
    order = np.argsort(right_key_values, kind="stable")
    sorted_right = right_key_values[order]
    starts = np.searchsorted(sorted_right, left_key_values, side="left")
    ends = np.searchsorted(sorted_right, left_key_values, side="right")
    counts = ends - starts
    total = int(counts.sum())
    left_index = np.repeat(np.arange(left_rows), counts)
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    positions = np.arange(total) - np.repeat(offsets, counts)
    right_index = order[np.repeat(starts, counts) + positions]
    for name, array in left.items():
        array[left_index]
    for name, array in right.items():
        array[right_index]
    return total


def _seed_aggregate_values(values, func: str, count: int) -> object:
    if func == "count":
        return count
    numeric = values.astype(np.float64)
    if func == "sum":
        return float(numeric.sum())
    if func == "avg":
        return float(numeric.mean())
    if func == "min":
        return float(numeric.min())
    return float(numeric.max())


def _seed_group_aggregate(
    relation: Dict[str, np.ndarray],
    key_name: str,
    value_name: str,
    funcs: Sequence[str],
) -> Dict[str, Sequence[object]]:
    """The seed's per-group Python loop (one pass per aggregate function)."""
    rows = len(relation[key_name])
    key_array = relation[key_name]
    order = np.argsort(key_array, kind="stable")
    sorted_keys = key_array[order]
    changes = np.zeros(rows, dtype=bool)
    changes[0] = True
    changes[1:] |= sorted_keys[1:] != sorted_keys[:-1]
    group_starts = np.nonzero(changes)[0]
    group_ends = np.concatenate((group_starts[1:], [rows]))
    result: Dict[str, Sequence[object]] = {}
    for func in funcs:
        values_sorted = relation[value_name][order]
        outputs = []
        for start, end in zip(group_starts, group_ends):
            outputs.append(
                _seed_aggregate_values(values_sorted[start:end], func, end - start)
            )
        result[func] = np.array(outputs, dtype=object)
    return result


# --------------------------------------------------------------------- #
# Benchmarks
# --------------------------------------------------------------------- #
def test_string_keyed_join_speedup():
    rng = np.random.default_rng(42)
    keys = np.array([f"key_{i:06d}" for i in range(JOIN_KEYS)], dtype=object)
    left_raw = keys[rng.integers(0, JOIN_KEYS, size=JOIN_ROWS)]
    right_raw = keys[rng.integers(0, JOIN_KEYS, size=JOIN_ROWS)]
    payload_left = rng.integers(0, 1000, size=JOIN_ROWS)
    payload_right = rng.integers(0, 1000, size=JOIN_ROWS)

    seed_left = {"l.k": left_raw, "l.v": payload_left}
    seed_right = {"r.k": right_raw, "r.v": payload_right}
    relalg_left = Relation(
        {"l.k": DictEncodedArray.encode(left_raw), "l.v": payload_left}
    )
    relalg_right = Relation(
        {"r.k": DictEncodedArray.encode(right_raw), "r.v": payload_right}
    )
    predicate = [JoinPredicate("l", "k", "r", "k")]

    relalg_result = hash_join(relalg_left, relalg_right, predicate, frozenset({"l"}))
    seed_rows = _seed_equi_join(seed_left, seed_right, "l.k", "r.k")
    assert relalg_result.num_rows == seed_rows

    seed_seconds = _best_seconds(
        lambda: _seed_equi_join(seed_left, seed_right, "l.k", "r.k")
    )
    relalg_seconds = _best_seconds(
        lambda: hash_join(relalg_left, relalg_right, predicate, frozenset({"l"}))
    )
    speedup = seed_seconds / relalg_seconds
    throughput = (2 * JOIN_ROWS) / relalg_seconds / 1e6
    print(
        f"\nstring-keyed join ({JOIN_ROWS} x {JOIN_ROWS} rows, {JOIN_KEYS} keys): "
        f"seed {seed_seconds * 1e3:.1f} ms, relalg {relalg_seconds * 1e3:.1f} ms "
        f"({speedup:.1f}x, {throughput:.1f} M input rows/s)"
    )


def test_grouped_aggregation_speedup():
    rng = np.random.default_rng(7)
    group_keys = rng.integers(0, AGG_GROUPS, size=AGG_ROWS)
    values = rng.uniform(0.0, 100.0, size=AGG_ROWS)
    seed_relation = {"t.g": group_keys, "t.v": values}
    relalg_relation = Relation({"t.g": group_keys, "t.v": values})
    group_by = [ColumnRef("t", "g")]
    funcs = ["sum", "count", "avg", "min", "max"]
    aggregates = [
        Aggregate(func, None, None, func)
        if func == "count"
        else Aggregate(func, "t", "v", func)
        for func in funcs
    ]

    relalg_result = group_aggregate(relalg_relation, group_by, aggregates)
    seed_result = _seed_group_aggregate(seed_relation, "t.g", "t.v", funcs)
    assert relalg_result.num_rows == len(seed_result["sum"])
    for func in funcs:
        np.testing.assert_allclose(
            np.asarray(relalg_result[func], dtype=np.float64),
            np.asarray(seed_result[func], dtype=np.float64),
        )

    seed_seconds = _best_seconds(
        lambda: _seed_group_aggregate(seed_relation, "t.g", "t.v", funcs)
    )
    relalg_seconds = _best_seconds(
        lambda: group_aggregate(relalg_relation, group_by, aggregates)
    )
    speedup = seed_seconds / relalg_seconds
    throughput = AGG_ROWS / relalg_seconds / 1e6
    print(
        f"\ngrouped aggregation ({AGG_ROWS} rows, {AGG_GROUPS} groups): "
        f"seed {seed_seconds * 1e3:.1f} ms, relalg {relalg_seconds * 1e3:.1f} ms "
        f"({speedup:.1f}x, {throughput:.1f} M rows/s)"
    )


def test_stable_order_speedup():
    rng = np.random.default_rng(17)
    codes = rng.integers(0, STAR_JOIN_DOMAIN, size=STAR_JOIN_ROWS)
    values = rng.uniform(0.0, 100.0, size=STAR_JOIN_ROWS)
    groups = rng.integers(0, STAR_GROUPS, size=STAR_JOIN_ROWS)
    cases = [
        ("join codes", lambda: np.argsort(codes, kind="stable"), lambda: stable_order(codes)),
        ("canonical (float, int)", lambda: np.lexsort((groups, values)),
         lambda: stable_order(values, groups)),
    ]
    for label, seed_sort, relalg_sort in cases:
        assert relalg_sort().tolist() == seed_sort().tolist()
        seed_seconds = _best_seconds(seed_sort)
        relalg_seconds = _best_seconds(relalg_sort)
        print(
            f"\nstable order, {label} ({STAR_JOIN_ROWS} rows): "
            f"seed {seed_seconds * 1e3:.1f} ms, relalg {relalg_seconds * 1e3:.1f} ms "
            f"({seed_seconds / relalg_seconds:.1f}x)"
        )


def test_exact_sum_vs_canonical_sort():
    """star_parallel's aggregate shape: 180k rows in 5,000 groups, already
    sorted by group as ``group_aggregate`` leaves them."""
    rng = np.random.default_rng(17)
    groups = np.sort(rng.integers(0, STAR_GROUPS, size=STAR_AGG_ROWS))
    values = rng.uniform(0.0, 100.0, size=STAR_AGG_ROWS)
    starts = np.flatnonzero(np.diff(groups, prepend=-1))
    ends = np.append(starts[1:], STAR_AGG_ROWS)
    exact = exact_group_sums(values, starts)
    shuffled = values[stable_order(groups, rng.permutation(STAR_AGG_ROWS))]
    assert exact.tobytes() == exact_group_sums(shuffled, starts).tobytes()
    for group in range(0, len(starts), 500):
        assert exact[group] == math.fsum(values[starts[group]:ends[group]].tolist())

    def canonical_sum() -> object:
        order = stable_order(groups, values)
        return np.add.reduceat(values[order], starts)

    sort_seconds = _best_seconds(canonical_sum)
    exact_seconds = _best_seconds(lambda: exact_group_sums(values, starts))
    reduceat_seconds = _best_seconds(lambda: np.add.reduceat(values, starts))
    print(
        f"\nfloat SUM ({STAR_AGG_ROWS} rows, {STAR_GROUPS} groups): canonical sort + "
        f"reduceat {sort_seconds * 1e3:.1f} ms, exact sum {exact_seconds * 1e3:.2f} ms "
        f"({sort_seconds / exact_seconds:.0f}x), plain reduceat {reduceat_seconds * 1e3:.2f} ms"
    )


def test_validate_plan_row_ops_below_seed():
    """A 5-join plan validates with fewer sample-join row operations than an
    estimator without the join cache would need (the seed re-joined every
    set)."""
    from repro.cardinality.sampling_estimator import SamplingEstimator
    from repro.optimizer.optimizer import Optimizer
    from repro.workloads.ott import generate_ott_database, make_ott_query

    db = generate_ott_database(
        num_tables=6, rows_per_table=3000, rows_per_value=60, seed=21, sampling_ratio=0.2
    )
    query = make_ott_query(db, [0] * 6)
    plan = Optimizer(db).optimize(query)
    estimator = SamplingEstimator(db, query)
    validation = estimator.validate_plan(plan)

    # Seed behaviour: every join set is rebuilt from scratch — replay each
    # join node's subtree on a fresh estimator so nothing is shared.
    seed_row_ops = 0
    for node in plan.join_nodes():
        seed_row_ops += SamplingEstimator(db, query).validate_plan(node).sample_join_row_ops
    print(
        f"\nvalidate_plan on {validation.joins_validated} join sets: "
        f"{validation.sample_join_row_ops} row ops with the join cache vs "
        f"{seed_row_ops} without ({validation.prefix_cache_hits} cache hits)"
    )
    assert validation.joins_validated >= 5
    assert validation.sample_join_row_ops < seed_row_ops
    assert validation.prefix_cache_hits >= validation.joins_validated - 1
