"""Property tests for the relational-algebra core.

The three equi-join kernels (hash, sort-merge, block nested-loop) must agree
on the produced row *multiset* for randomized schemas and data, and
dictionary-encoded string columns must round-trip unchanged through filter,
join and aggregation.
"""

from collections import Counter

import numpy as np
import pytest

from repro.errors import ExecutionError, SchemaError
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


def _row_multiset(relation: Relation) -> Counter:
    decoded = relation.decoded()
    names = sorted(decoded)
    return Counter(
        tuple(decoded[name][i] for name in names) for i in range(relation.num_rows)
    )


def _random_relation(rng, alias: str, rows: int, key_domain: int, string_keys: bool):
    key_values = rng.integers(0, key_domain, size=rows)
    if string_keys:
        key = DictEncodedArray.encode(
            np.array([f"key_{value:03d}" for value in key_values], dtype=object)
        )
    else:
        key = key_values
    return Relation(
        {
            f"{alias}.k": key,
            f"{alias}.payload": rng.integers(0, 1000, size=rows),
        }
    )


class TestJoinKernelEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("string_keys", [False, True])
    def test_kernels_agree_on_random_data(self, seed, string_keys, make_rng):
        rng = make_rng(seed)
        left = _random_relation(
            rng, "l", int(rng.integers(0, 120)), int(rng.integers(1, 40)), string_keys
        )
        right = _random_relation(
            rng, "r", int(rng.integers(0, 120)), int(rng.integers(1, 40)), string_keys
        )
        predicates = [JoinPredicate("l", "k", "r", "k")]
        results = [
            kernel(left, right, predicates, frozenset({"l"}))
            for kernel in (hash_join, merge_join, nested_loop_join)
        ]
        reference = _row_multiset(results[-1])
        assert _row_multiset(results[0]) == reference
        assert _row_multiset(results[1]) == reference
        # Sanity: the multiset matches a dictionary-based reference join.
        left_keys = left["l.k"].decode() if string_keys else left["l.k"]
        right_keys = right["r.k"].decode() if string_keys else right["r.k"]
        expected = sum(
            int(np.sum(np.asarray(right_keys) == key)) for key in np.asarray(left_keys)
        )
        assert results[0].num_rows == expected

    @pytest.mark.parametrize("seed", range(4))
    def test_multi_predicate_composite_keys(self, seed, make_rng):
        rng = make_rng(100 + seed)
        rows = 150
        left = Relation(
            {
                "l.k1": rng.integers(0, 6, size=rows),
                "l.k2": rng.integers(0, 6, size=rows),
            }
        )
        right = Relation(
            {
                "r.k1": rng.integers(0, 6, size=rows),
                "r.k2": rng.integers(0, 6, size=rows),
            }
        )
        predicates = [
            JoinPredicate("l", "k1", "r", "k1"),
            JoinPredicate("l", "k2", "r", "k2"),
        ]
        counts = {
            kernel.__name__: kernel(left, right, predicates, frozenset({"l"})).num_rows
            for kernel in (hash_join, merge_join, nested_loop_join)
        }
        assert len(set(counts.values())) == 1, counts

    def test_cross_product_without_predicates(self):
        left = Relation({"l.a": np.arange(7)})
        right = Relation({"r.b": np.arange(5)})
        for kernel in (hash_join, merge_join, nested_loop_join):
            assert kernel(left, right, [], frozenset({"l"})).num_rows == 35

    def test_reversed_predicate_orientation(self):
        left = Relation({"l.k": np.array([1, 2, 3])})
        right = Relation({"r.k": np.array([2, 3, 3])})
        # Predicate written right-to-left must resolve sides via left_aliases.
        predicate = JoinPredicate("r", "k", "l", "k")
        result = hash_join(left, right, [predicate], frozenset({"l"}))
        assert result.num_rows == 3


class TestDictionaryRoundTrip:
    def test_encode_decode_round_trip(self):
        values = np.array(["pear", "apple", "pear", "fig", "apple"], dtype=object)
        encoded = DictEncodedArray.encode(values)
        assert encoded.codes.dtype == np.int32
        assert list(encoded.decode()) == list(values)

    def test_filter_join_aggregate_round_trip(self, make_rng):
        rng = make_rng(11)
        categories = np.array(["alpha", "beta", "gamma", "delta"], dtype=object)
        rows = 300
        left = Relation(
            {
                "l.cat": DictEncodedArray.encode(categories[rng.integers(0, 4, size=rows)]),
                "l.v": rng.uniform(0, 10, size=rows),
            }
        )
        right = Relation(
            {"r.cat": DictEncodedArray.encode(categories[rng.integers(0, 4, size=rows)])}
        )
        filtered = filter_relation(
            left, "l", [LocalPredicate("l", "cat", "in", ("alpha", "beta"))]
        )
        assert set(filtered["l.cat"].decode()) <= {"alpha", "beta"}
        joined = hash_join(filtered, right, [JoinPredicate("l", "cat", "r", "cat")], frozenset({"l"}))
        decoded = joined.decoded()
        assert (decoded["l.cat"] == decoded["r.cat"]).all()
        grouped = group_aggregate(
            joined,
            [ColumnRef("l", "cat")],
            [Aggregate("count", None, None, "n"), Aggregate("sum", "l", "v", "total")],
        )
        out = grouped.decoded()
        # Reference computation on decoded values.
        left_cats = filtered["l.cat"].decode()
        right_cats = right["r.cat"].decode()
        for i, cat in enumerate(out["l.cat"]):
            left_mask = left_cats == cat
            expected_count = int(left_mask.sum()) * int((right_cats == cat).sum())
            assert out["n"][i] == expected_count

    def test_min_max_on_encoded_strings(self):
        relation = Relation(
            {
                "t.g": np.array([1, 1, 2]),
                "t.s": DictEncodedArray.encode(
                    np.array(["pear", "apple", "zebra"], dtype=object)
                ),
            }
        )
        grouped = group_aggregate(
            relation,
            [ColumnRef("t", "g")],
            [Aggregate("min", "t", "s", "lo"), Aggregate("max", "t", "s", "hi")],
        )
        assert list(grouped["lo"]) == ["apple", "zebra"]
        assert list(grouped["hi"]) == ["pear", "zebra"]


class TestPredicateCompiler:
    def _relation(self):
        return Relation(
            {
                "t.n": np.array([1, 2, 3, 4, 5]),
                "t.s": DictEncodedArray.encode(
                    np.array(["a", "b", "c", "d", "e"], dtype=object)
                ),
            }
        )

    def test_in_and_between_numeric(self):
        relation = self._relation()
        filtered = filter_relation(relation, "t", [LocalPredicate("t", "n", "in", (2, 5, 9))])
        assert list(filtered["t.n"]) == [2, 5]
        filtered = filter_relation(relation, "t", [LocalPredicate("t", "n", "between", (2, 4))])
        assert list(filtered["t.n"]) == [2, 3, 4]

    def test_in_and_between_encoded_strings(self):
        relation = self._relation()
        filtered = filter_relation(
            relation, "t", [LocalPredicate("t", "s", "in", ("b", "e", "zz"))]
        )
        assert list(filtered["t.s"].decode()) == ["b", "e"]
        filtered = filter_relation(
            relation, "t", [LocalPredicate("t", "s", "between", ("b", "d"))]
        )
        assert list(filtered["t.s"].decode()) == ["b", "c", "d"]

    def test_range_operators_on_encoded_strings(self):
        relation = self._relation()
        for op, expected in [
            ("<", ["a", "b"]),
            ("<=", ["a", "b", "c"]),
            (">", ["d", "e"]),
            (">=", ["c", "d", "e"]),
            ("=", ["c"]),
            ("<>", ["a", "b", "d", "e"]),
        ]:
            filtered = filter_relation(relation, "t", [LocalPredicate("t", "s", op, "c")])
            assert list(filtered["t.s"].decode()) == expected, op

    def test_unknown_operator_raises(self):
        class FakePredicate:
            alias, column, op, value = "t", "n", "~~", 1

        with pytest.raises(ExecutionError):
            filter_relation(self._relation(), "t", [FakePredicate()])

    def test_missing_column_raises(self):
        with pytest.raises(ExecutionError):
            filter_relation(self._relation(), "t", [LocalPredicate("t", "nope", "=", 1)])


class TestTypeMismatches:
    """Regression tests: incomparable literals/keys must not raise raw TypeErrors."""

    def test_numeric_literal_against_string_column_matches_nothing(self):
        relation = Relation(
            {"t.s": DictEncodedArray.encode(np.array(["a", "b"], dtype=object))}
        )
        assert filter_relation(relation, "t", [LocalPredicate("t", "s", "=", 5)]).num_rows == 0
        assert filter_relation(relation, "t", [LocalPredicate("t", "s", "<>", 5)]).num_rows == 2
        assert (
            filter_relation(relation, "t", [LocalPredicate("t", "s", "in", (1, 2))]).num_rows
            == 0
        )

    def test_range_against_string_column_raises_execution_error(self):
        relation = Relation(
            {"t.s": DictEncodedArray.encode(np.array(["a", "b"], dtype=object))}
        )
        with pytest.raises(ExecutionError):
            filter_relation(relation, "t", [LocalPredicate("t", "s", "<", 5)])

    @pytest.mark.parametrize("kernel", [hash_join, merge_join, nested_loop_join],
                             ids=lambda kernel: kernel.__name__)
    @pytest.mark.parametrize("string_side", ["left", "right"])
    def test_join_between_string_and_numeric_keys_is_empty(self, kernel, string_side):
        strings = DictEncodedArray.encode(np.array(["1", "2"], dtype=object))
        numbers = np.array([1, 2])
        left, right = (strings, numbers) if string_side == "left" else (numbers, strings)
        result = kernel(Relation({"l.k": left}), Relation({"r.k": right}),
                        [JoinPredicate("l", "k", "r", "k")], frozenset({"l"}))
        assert result.num_rows == 0

    @pytest.mark.parametrize("stray", [None, 7])
    def test_table_rejects_a_non_string_in_a_string_column(self, stray):
        # The engine has no NULLs: a str column holds strings only, so
        # ``s <> 'a'`` can never keep a None row.
        from repro.storage.table import Column, Table, TableSchema

        schema = TableSchema("t", (Column("s", "str"),))
        with pytest.raises(SchemaError, match="non-string"):
            Table(schema, {"s": np.array(["a", stray, "b"], dtype=object)})
        with pytest.raises(SchemaError, match="non-string"):
            Table(schema, {"s": np.array([stray, stray], dtype=object)})

    def test_in_with_mixed_type_literals_matches_comparable_values(self):
        relation = Relation({"t.a": np.array([1, 2, 3])})
        filtered = filter_relation(
            relation, "t", [LocalPredicate("t", "a", "in", (1, "x"))]
        )
        assert list(filtered["t.a"]) == [1]

    def test_empty_grouped_string_min_max_dtype_matches_nonempty(self):
        def make(rows):
            return Relation({
                "t.g": np.arange(rows, dtype=np.int64),
                "t.s": DictEncodedArray.encode(
                    np.array(["a"] * rows, dtype=object)
                ),
            })
        aggs = [Aggregate("min", "t", "s", "lo")]
        empty = group_aggregate(make(0), [ColumnRef("t", "g")], aggs)
        full = group_aggregate(make(2), [ColumnRef("t", "g")], aggs)
        assert np.asarray(empty["lo"]).dtype == np.asarray(full["lo"]).dtype == np.dtype(object)
