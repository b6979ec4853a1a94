"""Partial-aggregate decomposition is bit-identical to single-node.

The sharded coordinator's correctness contract: for any shard count and
*any* row-to-shard assignment, reducing each shard's rows with
:func:`~repro.relalg.aggregate.partial_aggregate` and merging the partials
with :func:`~repro.relalg.aggregate.merge_partials` (canonical shard order)
must reproduce :func:`~repro.relalg.aggregate.group_aggregate` over the
undivided relation byte for byte — dtypes, group order, and float bits.
Only ``COUNT``/``MIN``/``MAX`` take this path: counts add and winners
compare exactly, while a sum of correctly rounded shard sums would round
twice.  Exercised over TPC-H, TPC-DS and OTT data, shard counts 1–8,
random/skewed/adversarial assignments.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.relalg import Relation, concat_relations
from repro.relalg.aggregate import (
    group_aggregate,
    merge_partials,
    partial_aggregate,
    partial_merge_exact,
)
from repro.sql.ast import Aggregate, ColumnRef
from repro.workloads.ott import generate_ott_database
from repro.workloads.tpcds import generate_tpcds_database
from repro.workloads.tpch import generate_tpch_database


def _assert_bit_identical(expected: Relation, actual: Relation) -> None:
    """Byte-equality in the *served* representation.

    The service layer decodes every result before returning it
    (``Executor.execute_plan`` ends with ``relation.decoded()``), so the
    bit-identity contract compares decoded columns: names, order, dtypes,
    and exact bits (floats compared through their int64 bit patterns).
    """
    expected = expected.decoded()
    actual = actual.decoded()
    assert list(expected) == list(actual), "column names/order diverged"
    assert expected.num_rows == actual.num_rows
    for name in expected:
        left = np.asarray(expected[name])
        right = np.asarray(actual[name])
        assert left.dtype == right.dtype, f"{name}: dtype {left.dtype} != {right.dtype}"
        if left.dtype.kind == "f":
            assert np.array_equal(
                left.view(np.int64), right.view(np.int64)
            ), f"{name}: float bits diverged"
        else:
            assert np.array_equal(left, right), f"{name}: values diverged"


def _split(relation: Relation, assignment: np.ndarray, num_shards: int) -> List[Relation]:
    return [
        relation.take(np.flatnonzero(assignment == shard))
        for shard in range(num_shards)
    ]


def _merged(
    parts: Sequence[Relation],
    group_by: Sequence[ColumnRef],
    aggregates: Sequence[Aggregate],
) -> Relation:
    partials = [partial_aggregate(part, group_by, aggregates) for part in parts]
    return merge_partials(concat_relations(partials), group_by, aggregates)


def _assignments(
    num_rows: int, num_shards: int, seed: int
) -> List[Tuple[str, np.ndarray]]:
    """Random, skewed, and adversarial row-to-shard assignments."""
    rng = np.random.default_rng(seed)
    uniform = rng.integers(0, num_shards, size=num_rows)
    skewed = np.where(
        rng.random(num_rows) < 0.9, 0, rng.integers(0, num_shards, size=num_rows)
    )
    one_shard = np.full(num_rows, num_shards - 1)
    return [("uniform", uniform), ("skewed", skewed), ("one-shard", one_shard)]


# --------------------------------------------------------------------------- #
# Workload fixtures: (relation, group_by, exact-composable aggregates)
# --------------------------------------------------------------------------- #
def _tpch_case() -> Tuple[Relation, List[ColumnRef], List[Aggregate]]:
    db = generate_tpch_database(scale_factor=0.01, seed=7, sampling_ratio=0.3)
    relation = Relation.from_table(db.table("lineitem"), "l")
    group_by = [ColumnRef("l", "l_returnflag"), ColumnRef("l", "l_linestatus")]
    aggregates = [
        Aggregate("count", None, None, "cnt"),
        Aggregate("max", "l", "l_quantity", "qty"),
        Aggregate("min", "l", "l_shipmode", "first_mode"),
        Aggregate("max", "l", "l_extendedprice", "top_price"),
    ]
    return relation, group_by, aggregates


def _tpcds_case() -> Tuple[Relation, List[ColumnRef], List[Aggregate]]:
    db = generate_tpcds_database(seed=7)
    relation = Relation.from_table(db.table("store_sales"), "ss")
    group_by = [ColumnRef("ss", "ss_store_sk")]
    aggregates = [
        Aggregate("count", None, None, "cnt"),
        Aggregate("min", "ss", "ss_quantity", "qty"),
        Aggregate("min", "ss", "ss_net_profit", "worst"),
        Aggregate("max", "ss", "ss_sales_price", "best"),
    ]
    return relation, group_by, aggregates


def _ott_case() -> Tuple[Relation, List[ColumnRef], List[Aggregate]]:
    db = generate_ott_database(
        num_tables=3, rows_per_table=900, rows_per_value=30, seed=7, sampling_ratio=0.3
    )
    relation = Relation.from_table(db.table("r1"), "r1")
    group_by = [ColumnRef("r1", "a")]
    aggregates = [
        Aggregate("count", None, None, "cnt"),
        Aggregate("min", "r1", "b", "bottom"),
        Aggregate("max", "r1", "b", "top"),
    ]
    return relation, group_by, aggregates


_CASES = {"tpch": _tpch_case, "tpcds": _tpcds_case, "ott": _ott_case}


@pytest.fixture(scope="module", params=sorted(_CASES))
def case(request):
    return _CASES[request.param]()


class TestGroupedMerge:
    @pytest.mark.parametrize("num_shards", [1, 2, 3, 5, 8])
    def test_any_shard_count_matches_single_node(self, case, num_shards):
        relation, group_by, aggregates = case
        whole = group_aggregate(relation, group_by, aggregates)
        for label, assignment in _assignments(relation.num_rows, num_shards, seed=31):
            parts = _split(relation, assignment, num_shards)
            merged = _merged(parts, group_by, aggregates)
            try:
                _assert_bit_identical(whole, merged)
            except AssertionError as exc:  # pragma: no cover - diagnostics
                raise AssertionError(f"{label} assignment: {exc}") from exc

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_any_random_assignment_matches_single_node(self, case, seed):
        relation, group_by, aggregates = case
        whole = group_aggregate(relation, group_by, aggregates)
        rng = np.random.default_rng(seed)
        num_shards = int(rng.integers(1, 9))
        assignment = rng.integers(0, num_shards, size=relation.num_rows)
        merged = _merged(_split(relation, assignment, num_shards), group_by, aggregates)
        _assert_bit_identical(whole, merged)

    def test_merge_is_assignment_invariant(self, case):
        """Two different assignments merge to the same bytes — the merged
        result is a pure function of the row multiset."""
        relation, group_by, aggregates = case
        first = _merged(
            _split(relation, _assignments(relation.num_rows, 4, 11)[0][1], 4),
            group_by,
            aggregates,
        )
        second = _merged(
            _split(relation, _assignments(relation.num_rows, 4, 12)[0][1], 4),
            group_by,
            aggregates,
        )
        _assert_bit_identical(first, second)

    def test_empty_shards_are_harmless(self, case):
        relation, group_by, aggregates = case
        # 8 shards but every row on shard 3: seven empty partials.
        assignment = np.full(relation.num_rows, 3)
        whole = group_aggregate(relation, group_by, aggregates)
        merged = _merged(_split(relation, assignment, 8), group_by, aggregates)
        _assert_bit_identical(whole, merged)


class TestGlobalMerge:
    """No GROUP BY: one global row; an empty shard contributes no state."""

    @pytest.mark.parametrize("num_shards", [1, 2, 4, 8])
    def test_global_aggregates_match_single_node(self, case, num_shards):
        relation, _, aggregates = case
        whole = group_aggregate(relation, [], aggregates)
        rng = np.random.default_rng(5)
        assignment = rng.integers(0, num_shards, size=relation.num_rows)
        merged = _merged(_split(relation, assignment, num_shards), [], aggregates)
        _assert_bit_identical(whole, merged)

    def test_empty_shards_are_harmless(self, case):
        relation, _, aggregates = case
        whole = group_aggregate(relation, [], aggregates)
        merged = _merged(_split(relation, np.full(relation.num_rows, 3), 8), [], aggregates)
        _assert_bit_identical(whole, merged)

    def test_all_empty_parts_merge_like_empty_input(self, case):
        relation, _, aggregates = case
        empty = relation.empty_like()
        whole = group_aggregate(empty, [], aggregates)
        merged = _merged([empty, empty, empty], [], aggregates)
        _assert_bit_identical(whole, merged)


class TestStates:
    def test_partial_carries_one_state_per_aggregate(self, case):
        relation, group_by, aggregates = case
        partial = partial_aggregate(relation, group_by, aggregates)
        assert [name for name in partial if name.startswith("$.")] == [
            f"$.{aggregate.output_name}" for aggregate in aggregates
        ]

    @pytest.mark.parametrize("func", ["sum", "avg"])
    def test_sum_and_avg_partials_are_refused(self, func):
        relation = Relation({"t.v": np.arange(3.0)})
        with pytest.raises(ExecutionError, match="COUNT/MIN/MAX"):
            partial_aggregate(relation, [], [Aggregate(func, "t", "v", "s")])


class TestExactnessRouting:
    """``partial_merge_exact`` gates the partial path to exact compositions."""

    def test_count_min_max_always_compose(self):
        aggregates = [
            Aggregate("count", None, None, "c"),
            Aggregate("min", "l", "l_extendedprice", "mn"),
            Aggregate("max", "l", "l_shipmode", "mx"),
        ]
        assert partial_merge_exact(aggregates)

    def test_integer_sum_and_avg_do_not_compose(self):
        """Shard sums past 2**53 are rounded once each; adding them would
        round again, so even integer sums gather raw rows."""
        for func in ("sum", "avg"):
            assert not partial_merge_exact([Aggregate(func, "l", "l_quantity", "s")])

    def test_float_sum_does_not_compose(self):
        aggregates = [Aggregate("sum", "l", "l_extendedprice", "s")]
        assert not partial_merge_exact(aggregates)

    def test_float_avg_does_not_compose(self):
        aggregates = [Aggregate("avg", "l", "l_extendedprice", "a")]
        assert not partial_merge_exact(aggregates)

    def test_merge_requires_canonical_part_order_to_matter(self):
        """The documented contract: parts arrive in canonical shard order.
        With exact-composable aggregates any order gives the same bytes —
        which is exactly why the partial path is safe."""
        relation, group_by, aggregates = _tpch_case()
        parts = _split(relation, np.arange(relation.num_rows) % 4, 4)
        forward = _merged(parts, group_by, aggregates)
        backward = _merged(list(reversed(parts)), group_by, aggregates)
        _assert_bit_identical(forward, backward)
