"""Serial query kernels against references computed without them.

Every query operator runs serially in the caller's process, so the serial
kernel's output *is* the query's answer.  These tests hold it to independent
Python references over randomized data:

* the three equi-join kernels against exact nested loops over Python values
  (int and dictionary-encoded string keys, multi-column composite keys, and
  the int64 composite-domain overflow path that checks extra predicates as a
  residual filter on the matched pairs);
* grouped and global aggregation against per-group Python reductions —
  exact on dyadic floats, and for arbitrary floats each group is accumulated
  in row order;
* predicate evaluation against a row-by-row comparison, for every operator
  on int, float, dictionary-encoded and plain string columns.
"""

from __future__ import annotations

import operator
from collections import defaultdict

import numpy as np
import pytest

import repro.relalg.joins as joins_module
from repro.relalg import (
    DictEncodedArray,
    Relation,
    filter_relation,
    group_aggregate,
    hash_join,
    merge_join,
    nested_loop_join,
)
from repro.sql.ast import Aggregate, ColumnRef, JoinPredicate, LocalPredicate

LEFT = frozenset({"l"})
JOIN_KERNELS = (hash_join, merge_join, nested_loop_join)


def assert_bit_identical(expected: Relation, actual: Relation) -> None:
    """Same columns, rows, row order, dtypes — byte-for-byte equality."""
    assert set(expected) == set(actual)
    assert expected.num_rows == actual.num_rows
    for name in expected:
        want, got = expected[name], actual[name]
        if isinstance(want, DictEncodedArray):
            assert isinstance(got, DictEncodedArray), name
            assert np.array_equal(want.codes, got.codes), name
            assert np.array_equal(want.dictionary, got.dictionary), name
        else:
            want, got = np.asarray(want), np.asarray(got)
            assert want.dtype == got.dtype, name
            assert want.tobytes() == got.tobytes(), name


def python_values(column) -> list:
    if isinstance(column, DictEncodedArray):
        column = column.decode()
    return np.asarray(column).tolist()


# --------------------------------------------------------------------------- #
# Joins
# --------------------------------------------------------------------------- #
def _keyed_relation(rng, alias, rows, domain, string_keys):
    key_values = rng.integers(0, domain, size=rows)
    if string_keys:
        key = DictEncodedArray.encode(
            np.array([f"key_{value:05d}" for value in key_values], dtype=object)
        )
    else:
        key = key_values
    return Relation(
        {
            f"{alias}.k": key,
            f"{alias}.k2": rng.integers(0, max(2, domain // 3), size=rows),
            f"{alias}.payload": rng.uniform(0.0, 100.0, size=rows),
        }
    )


def reference_join(left: Relation, right: Relation, predicates) -> Relation:
    """Nested loops over Python values, pairs ordered by (left row, right row)."""
    left_keys = list(zip(*[python_values(left[f"l.{p.left_column}"]) for p in predicates]))
    right_keys = list(zip(*[python_values(right[f"r.{p.right_column}"]) for p in predicates]))
    pairs = [
        (i, j)
        for i, left_key in enumerate(left_keys)
        for j, right_key in enumerate(right_keys)
        if left_key == right_key
    ]
    left_index = np.array([i for i, _ in pairs], dtype=np.int64)
    right_index = np.array([j for _, j in pairs], dtype=np.int64)
    joined = left.take(left_index)
    joined.update(right.take(right_index))
    return joined


def check_join_kernels(left: Relation, right: Relation, predicates) -> Relation:
    expected = reference_join(left, right, predicates)
    for kernel in JOIN_KERNELS:
        assert_bit_identical(expected, kernel(left, right, predicates, LEFT))
    return expected


class TestJoinsAgainstNestedLoops:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("string_keys", [False, True])
    def test_single_key_random(self, seed, string_keys, make_rng):
        rng = make_rng(seed)
        left = _keyed_relation(
            rng, "l", int(rng.integers(0, 500)), int(rng.integers(1, 60)), string_keys
        )
        right = _keyed_relation(
            rng, "r", int(rng.integers(0, 500)), int(rng.integers(1, 60)), string_keys
        )
        check_join_kernels(left, right, [JoinPredicate("l", "k", "r", "k")])

    @pytest.mark.parametrize("seed", range(4))
    def test_composite_keys(self, seed, make_rng):
        rng = make_rng(100 + seed)
        left = _keyed_relation(rng, "l", 300, 12, False)
        right = _keyed_relation(rng, "r", 250, 12, False)
        joined = check_join_kernels(
            left, right,
            [JoinPredicate("l", "k", "r", "k"), JoinPredicate("l", "k2", "r", "k2")],
        )
        assert joined.num_rows > 0

    @pytest.mark.parametrize("string_keys", [False, True])
    def test_composite_domain_overflow_residual_path(self, monkeypatch, string_keys, make_rng):
        """When the composite int64 domain overflows, extra predicates become
        residual filters on the matched pairs; shrinking the overflow limit
        forces that route without multi-million-value dictionaries, and the
        route must not change the answer."""
        rng = make_rng(7)
        left = _keyed_relation(rng, "l", 400, 20, string_keys)
        right = _keyed_relation(rng, "r", 350, 20, string_keys)
        predicates = [
            JoinPredicate("l", "k", "r", "k"),
            JoinPredicate("l", "k2", "r", "k2"),
        ]
        unshrunken = hash_join(left, right, predicates, LEFT)
        monkeypatch.setattr(joins_module, "_MAX_COMPOSITE_DOMAIN", 8)
        codes = joins_module._composite_codes(left, right, predicates, LEFT)
        assert codes[3], "expected the overflow limit to force a residual predicate"
        assert_bit_identical(check_join_kernels(left, right, predicates), unshrunken)

    def test_empty_and_no_match_inputs(self, make_rng):
        rng = make_rng(1)
        left = _keyed_relation(rng, "l", 100, 5, False)
        predicates = [JoinPredicate("l", "k", "r", "k")]
        empty = _keyed_relation(rng, "r", 0, 5, False)
        assert check_join_kernels(left, empty, predicates).num_rows == 0
        disjoint = Relation({"r.k": rng.integers(100, 110, size=50),
                             "r.k2": rng.integers(0, 3, size=50),
                             "r.payload": rng.uniform(size=50)})
        assert check_join_kernels(left, disjoint, predicates).num_rows == 0


# --------------------------------------------------------------------------- #
# Aggregation
# --------------------------------------------------------------------------- #
def _groups_in_row_order(keys: list, values: list) -> dict:
    groups = defaultdict(list)
    for key, value in zip(keys, values):
        groups[key].append(value)
    return groups


class TestAggregationAgainstPythonReductions:
    AGGREGATES = [
        Aggregate("sum", "t", "v", "total"),
        Aggregate("avg", "t", "v", "mean"),
        Aggregate("min", "t", "v", "lo"),
        Aggregate("max", "t", "v", "hi"),
        Aggregate("count", None, None, "n"),
    ]

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("max_rows", [7, 64, 1000, 100_000])
    def test_float_sum_avg_min_max_count(self, seed, max_rows, make_rng):
        rng = make_rng(seed)
        rows = int(rng.integers(1, max_rows + 1))
        keys = rng.integers(0, max(1, rows // 4), size=rows)
        # Multiples of 2**-10 below 2**10: every partial sum is exact, so
        # the reference may add in any order.
        dyadic = rng.integers(-(2**20), 2**20, size=rows) / 1024.0
        grouped = group_aggregate(
            Relation({"t.g": keys, "t.v": dyadic}), [ColumnRef("t", "g")], self.AGGREGATES
        )
        groups = _groups_in_row_order(keys.tolist(), dyadic.tolist())
        want_keys = sorted(groups)
        assert grouped["t.g"].tolist() == want_keys
        assert grouped["total"].tolist() == [sum(groups[k]) for k in want_keys]
        assert grouped["mean"].tolist() == [sum(groups[k]) / len(groups[k]) for k in want_keys]
        assert grouped["lo"].tolist() == [min(groups[k]) for k in want_keys]
        assert grouped["hi"].tolist() == [max(groups[k]) for k in want_keys]
        assert grouped["n"].dtype == np.int64
        assert grouped["n"].tolist() == [len(groups[k]) for k in want_keys]

        # Arbitrary floats: each group is accumulated in row order.
        values = rng.uniform(-1e6, 1e6, size=rows)
        totals = group_aggregate(
            Relation({"t.g": keys, "t.v": values}), [ColumnRef("t", "g")], self.AGGREGATES[:1]
        )["total"]
        groups = _groups_in_row_order(keys.tolist(), values.tolist())
        want = [np.add.reduceat(np.array(groups[k]), [0])[0] for k in want_keys]
        assert totals.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("categories", [1, 17, 300])
    def test_string_keys_and_string_min_max(self, categories, make_rng):
        rng = make_rng(13)
        rows = 800
        names = np.array([f"cat_{i:03d}" for i in range(categories)], dtype=object)
        group_values = names[rng.integers(0, categories, size=rows)]
        strings = np.array([f"val_{v:04d}" for v in rng.integers(0, 300, size=rows)], dtype=object)
        dyadic = rng.integers(-1000, 1000, size=rows) / 8.0
        relation = Relation(
            {
                "t.g": DictEncodedArray.encode(group_values),
                "t.s": DictEncodedArray.encode(strings),
                "t.v": dyadic,
            }
        )
        aggregates = [
            Aggregate("min", "t", "s", "lo"),
            Aggregate("max", "t", "s", "hi"),
            Aggregate("sum", "t", "v", "total"),
            Aggregate("count", None, None, "n"),
        ]
        grouped = group_aggregate(relation, [ColumnRef("t", "g")], aggregates).decoded()
        by_group = _groups_in_row_order(group_values.tolist(), list(zip(strings, dyadic)))
        want_keys = sorted(by_group)
        assert grouped["t.g"].tolist() == want_keys
        assert grouped["lo"].tolist() == [min(s for s, _ in by_group[k]) for k in want_keys]
        assert grouped["hi"].tolist() == [max(s for s, _ in by_group[k]) for k in want_keys]
        assert grouped["total"].tolist() == [sum(v for _, v in by_group[k]) for k in want_keys]
        assert grouped["n"].tolist() == [len(by_group[k]) for k in want_keys]

    def test_global_aggregate(self, make_rng):
        values = make_rng(3).integers(-4096, 4096, size=500) / 64.0
        result = group_aggregate(Relation({"t.v": values}), [], self.AGGREGATES)
        assert result.num_rows == 1
        assert result["total"].tolist() == [sum(values.tolist())]
        assert result["mean"].tolist() == [sum(values.tolist()) / 500]
        assert result["lo"].tolist() == [values.min()]
        assert result["hi"].tolist() == [values.max()]
        assert result["n"].tolist() == [500]
        empty = group_aggregate(Relation({"t.v": values[:0]}), [], self.AGGREGATES)
        assert empty["n"].tolist() == [0]
        assert all(np.isnan(empty[name][0]) for name in ("total", "mean", "lo", "hi"))


# --------------------------------------------------------------------------- #
# Predicates
# --------------------------------------------------------------------------- #
OPERATORS = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def reference_mask(values: list, op: str, literal) -> list:
    if op == "in":
        return [value in literal for value in values]
    if op == "between":
        low, high = literal
        return [low <= value <= high for value in values]
    return [OPERATORS[op](value, literal) for value in values]


def _column(rng, kind: str, rows: int):
    """A column of ``kind`` plus an equality literal, an IN list and bounds."""
    draws = rng.integers(0, 50, size=rows)
    if kind == "int":
        return draws, 17, (3, 17, 49, 99), (10, 35)
    if kind == "float":
        return draws / 2.0, 8.5, (1.5, 8.5, 24.5, 99.0), (5.0, 17.5)
    words = np.array([f"v{v:02d}" for v in draws], dtype=object)
    column = DictEncodedArray.encode(words) if kind == "encoded" else words
    return column, "v17", ("v03", "v17", "v49", "zz"), ("v10", "v35")


class TestPredicatesAgainstRowByRow:
    @pytest.mark.parametrize("kind", ["int", "float", "encoded", "object"])
    @pytest.mark.parametrize("op", ["=", "<>", "<", "<=", ">", ">=", "in", "between"])
    def test_each_operator(self, op, kind, make_rng):
        column, literal, members, bounds = _column(make_rng(21), kind, 600)
        value = {"in": members, "between": bounds}.get(op, literal)
        relation = Relation({"t.a": column, "t.row": np.arange(600)})
        filtered = filter_relation(relation, "t", [LocalPredicate("t", "a", op, value)])
        want = reference_mask(python_values(column), op, value)
        assert 0 < sum(want) < 600
        assert filtered["t.row"].tolist() == np.flatnonzero(want).tolist()
        assert_bit_identical(relation.select(np.array(want)), filtered)

    @pytest.mark.parametrize("rows", [5, 128, 4096])
    def test_conjunction(self, rows, make_rng):
        rng = make_rng(21)
        column, _, members, _ = _column(rng, "encoded", rows)
        relation = Relation({"t.a": rng.integers(0, 50, size=rows), "t.s": column})
        predicates = [
            LocalPredicate("t", "a", "between", (10, 35)),
            LocalPredicate("t", "s", "in", members),
        ]
        want = np.logical_and(
            reference_mask(relation["t.a"].tolist(), "between", (10, 35)),
            reference_mask(python_values(column), "in", members),
        )
        assert_bit_identical(
            relation.select(want), filter_relation(relation, "t", predicates)
        )
