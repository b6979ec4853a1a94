"""Property tests for the sort-free join and selection kernels.

``factorize_pair`` direct-addresses dense integer keys, ``hash_match`` probes
a position table when the build side is unique, and ``Relation.select``
gathers by row index.  None of that may show in the output: every kernel must
produce the pairs an exact Python-int reference produces, in the order "left
row ascending, ties by right row ascending", and ``hash_join`` and
``merge_join`` must equal ``nested_loop_join`` byte for byte — on keys on
both sides of the density rule, at the integer dtypes' extremes, and on the
key types that must keep taking the sorting path.
The same holds whichever side ``hash_match`` builds on (its orientation rule)
and for ``index_nested_loop_join``, which probes a sorted index instead.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.relalg.joins as joins_module
from repro.relalg import (
    DictEncodedArray,
    Relation,
    filter_relation,
    hash_join,
    index_nested_loop_join,
    merge_join,
    nested_loop_join,
)
from repro.relalg.encoding import factorize_pair
from repro.relalg.joins import hash_match, join_indices
from repro.sql.ast import JoinPredicate, LocalPredicate
from repro.storage.index import SortedIndex
from repro.storage.table import Column, Table, TableSchema

LEFT = frozenset({"l"})
ON_K = [JoinPredicate("l", "k", "r", "k")]
INT_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]
INT64_MAX = np.iinfo(np.int64).max


def assert_same_relation(expected: Relation, actual: Relation) -> None:
    assert list(expected) == list(actual)
    assert expected.num_rows == actual.num_rows
    for name, want in expected.items():
        got = actual[name]
        if isinstance(want, DictEncodedArray):
            assert isinstance(got, DictEncodedArray), name
            assert got.dictionary is want.dictionary, name
            want, got = want.codes, got.codes
        assert want.dtype == got.dtype, name
        assert want.tobytes() == got.tobytes(), name


def reference_pairs(left_keys, right_keys):
    """Exact nested loops over Python values: the order every kernel must emit."""
    pairs = [
        (i, j)
        for i, left_key in enumerate(zip(*left_keys))
        for j, right_key in enumerate(zip(*right_keys))
        if left_key == right_key
    ]
    return [i for i, _ in pairs], [j for _, j in pairs]


def python_values(column):
    if isinstance(column, DictEncodedArray):
        column = column.decode()
    return column.tolist()


def check_all_kernels(left: Relation, right: Relation, predicates) -> None:
    """Every kernel against the Python reference and the nested-loop relation."""
    want_left, want_right = reference_pairs(
        [python_values(left[f"l.{p.left_column}"]) for p in predicates],
        [python_values(right[f"r.{p.right_column}"]) for p in predicates],
    )
    for method in ("hash", "merge", "nested_loop"):
        got_left, got_right = join_indices(left, right, predicates, LEFT, method)
        assert got_left.tolist() == want_left, method
        assert got_right.tolist() == want_right, method
    reference = nested_loop_join(left, right, predicates, LEFT)
    assert_same_relation(reference, hash_join(left, right, predicates, LEFT))
    assert_same_relation(reference, merge_join(left, right, predicates, LEFT))


def keyed(alias: str, **keys) -> Relation:
    rows = len(next(iter(keys.values())))
    columns = {f"{alias}.{name}": column for name, column in keys.items()}
    columns[f"{alias}.payload"] = np.arange(rows, dtype=np.float64) * 0.5
    return Relation(columns, num_rows=rows)


# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #
@st.composite
def integer_key_pairs(draw):
    """(left, right) integer key arrays of possibly different dtypes.

    The build side is dense, spread over its whole dtype, or pinned to the
    dtype's two extremes; the probe side mixes build values with values just
    outside the build span and arbitrary values of its own dtype.
    """
    left_dtype, right_dtype = draw(st.sampled_from(INT_DTYPES)), draw(st.sampled_from(INT_DTYPES))
    left_info, right_info = np.iinfo(left_dtype), np.iinfo(right_dtype)
    if left_info.max > INT64_MAX or right_info.max > INT64_MAX:
        # The sorting path compares uint64 with signed values through
        # float64; keep such pairs to one dtype so the reference stays exact.
        left_dtype = right_dtype = np.uint64
        left_info = right_info = np.iinfo(np.uint64)
    shape = draw(st.sampled_from(["dense", "spread", "extremes"]))
    if shape == "dense":
        low = draw(st.integers(right_info.min, right_info.max - 50))
        build_values = st.integers(low, low + 50)
    else:
        build_values = st.integers(right_info.min, right_info.max)
    right = draw(st.lists(build_values, max_size=40, unique=draw(st.booleans())))
    if shape == "extremes":
        right += [right_info.min, right_info.max]
    nearby = [v + d for v in right for d in (-1, 0, 0, 1)] + [left_info.min, left_info.max]
    nearby = [v for v in nearby if left_info.min <= v <= left_info.max]
    probe_values = st.sampled_from(nearby) | st.integers(left_info.min, left_info.max)
    left = draw(st.lists(probe_values, max_size=40))
    return np.array(left, dtype=left_dtype), np.array(right, dtype=right_dtype)


@st.composite
def density_edge_pairs(draw):
    """Build spans from two under to two over the density rule's threshold."""
    left_rows, right_rows = draw(st.integers(0, 12)), draw(st.integers(2, 12))
    low = draw(st.integers(-1000, 1000))
    span = 4 * (left_rows + right_rows) - 1 + draw(st.integers(-2, 2))
    inner = st.integers(low, low + span - 1)
    right = [low, low + span - 1] + draw(
        st.lists(inner, min_size=right_rows - 2, max_size=right_rows - 2)
    )
    left = draw(
        st.lists(st.sampled_from(right) | inner | st.integers(low - 3, low + span + 2),
                 min_size=left_rows, max_size=left_rows)
    )
    return np.array(left, dtype=np.int64), np.array(right, dtype=np.int64)


def other_key_pairs():
    """Key types that must keep taking the sorting / dictionary paths."""
    floats = st.lists(
        st.sampled_from([0.0, 1.0, 2.0, 2.5, -1.0, float("nan")]), max_size=20
    ).map(lambda values: np.array(values, dtype=np.float64))
    bools = st.lists(st.booleans(), max_size=20).map(lambda values: np.array(values, dtype=bool))
    small_ints = st.lists(st.integers(-1, 3), max_size=20).map(
        lambda values: np.array(values, dtype=np.int64)
    )
    words = st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=20)
    encoded = words.map(lambda values: DictEncodedArray.encode(np.array(values, dtype=object)))
    plain_words = words.map(lambda values: np.array(values, dtype=object))
    return st.one_of(
        st.tuples(floats, floats),
        st.tuples(floats, small_ints),
        st.tuples(small_ints, floats),
        st.tuples(bools, bools),
        st.tuples(encoded, encoded),
        st.tuples(encoded, plain_words),
        st.tuples(plain_words, encoded),
        st.tuples(encoded, small_ints),
        st.tuples(small_ints, encoded),
    )


# --------------------------------------------------------------------------- #
# Joins
# --------------------------------------------------------------------------- #
class TestJoinsAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(keys=integer_key_pairs())
    def test_integer_keys_of_every_dtype(self, keys):
        check_all_kernels(keyed("l", k=keys[0]), keyed("r", k=keys[1]), ON_K)

    @settings(max_examples=100, deadline=None)
    @given(keys=density_edge_pairs())
    def test_spans_around_the_density_rule(self, keys):
        check_all_kernels(keyed("l", k=keys[0]), keyed("r", k=keys[1]), ON_K)

    @settings(max_examples=100, deadline=None)
    @given(keys=other_key_pairs())
    def test_float_bool_and_dictionary_keys(self, keys):
        check_all_kernels(keyed("l", k=keys[0]), keyed("r", k=keys[1]), ON_K)

    @settings(max_examples=60, deadline=None)
    @given(first=integer_key_pairs(), second=st.one_of(density_edge_pairs(), other_key_pairs()))
    def test_two_predicate_composite_keys(self, first, second):
        left_rows = min(len(first[0]), len(second[0]))
        right_rows = min(len(first[1]), len(second[1]))
        left = keyed("l", k=first[0][:left_rows], k2=second[0].take(np.arange(left_rows)))
        right = keyed("r", k=first[1][:right_rows], k2=second[1].take(np.arange(right_rows)))
        check_all_kernels(left, right, ON_K + [JoinPredicate("l", "k2", "r", "k2")])

    def test_int64_extremes_in_one_column(self):
        info = np.iinfo(np.int64)
        right = np.array([info.min, info.max, 0, 7], dtype=np.int64)
        left = np.array([info.max, 7, info.min, -1, info.min], dtype=np.int64)
        check_all_kernels(keyed("l", k=left), keyed("r", k=right), ON_K)

    def test_probe_far_outside_a_dense_span_cannot_wrap_into_it(self):
        info = np.iinfo(np.int64)
        right = np.arange(info.max - 9, info.max + 1, dtype=np.int64)[::-1]
        left = np.array([info.min, info.min + 5, info.max - 3, -1, info.max], dtype=np.int64)
        check_all_kernels(keyed("l", k=left), keyed("r", k=right), ON_K)

    def test_uint64_above_int64_is_not_reinterpreted(self):
        right = np.array([0, 1, 2, 3, 2**64 - 3], dtype=np.uint64)
        left = np.array([2**64 - 3, 3, 2**63, 0], dtype=np.uint64)
        check_all_kernels(keyed("l", k=left), keyed("r", k=right), ON_K)
        dense = np.arange(2**63 - 4, 2**63 + 4, dtype=np.uint64)
        check_all_kernels(keyed("l", k=dense[::-2]), keyed("r", k=dense), ON_K)
        # Against a signed build side holding -3, 2**64 - 3 must not match.
        signed = np.array([-3, 0, 3], dtype=np.int64)
        pairs = join_indices(keyed("l", k=left), keyed("r", k=signed), ON_K, LEFT, "hash")
        assert [index.tolist() for index in pairs] == [[1, 3], [2, 1]]


class TestFactorizePair:
    @settings(max_examples=150, deadline=None)
    @given(keys=st.one_of(integer_key_pairs(), density_edge_pairs()))
    def test_codes_are_int64_inside_the_domain(self, keys):
        left_codes, right_codes, domain = factorize_pair(*keys)
        assert left_codes.dtype == right_codes.dtype == np.int64
        for codes in (left_codes, right_codes):
            assert len(codes) == 0 or (0 <= codes.min() and codes.max() < domain)
        equal = left_codes[:, None] == right_codes[None, :]
        assert equal.tolist() == [
            [a == b for b in keys[1].tolist()] for a in keys[0].tolist()
        ]

    def test_dense_integers_are_direct_addressed(self):
        left_codes, right_codes, domain = factorize_pair(
            np.array([9, 12, 10, 13, -40], dtype=np.int16), np.array([12, 10, 11], dtype=np.int32)
        )
        assert left_codes.tolist() == [3, 2, 0, 3, 3]
        assert right_codes.tolist() == [2, 0, 1]
        assert domain == 4

    def test_shared_dictionary_codes_are_widened(self):
        column = DictEncodedArray.encode(np.array(["x", "y", "x"], dtype=object))
        left_codes, right_codes, domain = factorize_pair(column, column.take(np.array([1])))
        assert left_codes.dtype == right_codes.dtype == np.int64
        assert domain == 2


class TestFastPathIsTaken:
    """Dense integer joins must not sort: the sorting entry points raise."""

    @staticmethod
    def forbid(monkeypatch, *names):
        def forbidden(*args, **kwargs):
            raise AssertionError("the sort-free path fell back to sorting")

        for name in names:
            monkeypatch.setattr(np, name, forbidden)

    def test_primary_key_foreign_key_join_never_sorts(self, monkeypatch, make_rng):
        rng = make_rng(7)
        orders = keyed("r", k=rng.permutation(2_000) + 100)
        lineitem = keyed("l", k=rng.integers(0, 2_300, size=10_000))
        expected = nested_loop_join(lineitem, orders, ON_K, LEFT)
        self.forbid(monkeypatch, "unique", "searchsorted", "argsort", "sort", "lexsort")
        assert_same_relation(expected, hash_join(lineitem, orders, ON_K, LEFT))

    def test_duplicate_build_side_factorizes_without_sorting(self, monkeypatch, make_rng):
        rng = make_rng(8)
        left = keyed("l", k=rng.integers(-50, 450, size=3_000))
        right = keyed("r", k=rng.integers(0, 400, size=2_000))
        expected = nested_loop_join(left, right, ON_K, LEFT)
        self.forbid(monkeypatch, "unique", "searchsorted")
        assert_same_relation(expected, hash_join(left, right, ON_K, LEFT))

    def test_sparse_keys_still_take_the_sorting_path(self, monkeypatch):
        left = keyed("l", k=np.array([5, 10**9, 7]))
        right = keyed("r", k=np.array([10**9, 5, 5]))
        self.forbid(monkeypatch, "unique")
        with pytest.raises(AssertionError, match="fell back to sorting"):
            hash_join(left, right, ON_K, LEFT)


# --------------------------------------------------------------------------- #
# Build orientation
# --------------------------------------------------------------------------- #
def builds_on_the_left(left_codes, right_codes, domain) -> bool:
    """Whether ``hash_match`` swapped sides (it then calls itself once)."""
    with mock.patch.object(joins_module, "hash_match", wraps=hash_match) as spy:
        joins_module.hash_match(left_codes, right_codes, domain)
    return spy.call_count == 2


@st.composite
def small_left_duplicate_right(draw):
    """A few left keys against many right rows over a small, repeating domain."""
    domain = draw(st.integers(2, 12))
    right = draw(st.lists(st.integers(0, domain - 1), min_size=domain + 1, max_size=60))
    left = draw(st.lists(st.integers(-2, domain + 1), max_size=8, unique=draw(st.booleans())))
    return np.array(left, dtype=np.int64), np.array(right, dtype=np.int64)


class TestBuildOrientation:
    @settings(max_examples=150, deadline=None)
    @given(keys=small_left_duplicate_right())
    def test_small_left_against_duplicate_right(self, keys):
        check_all_kernels(keyed("l", k=keys[0]), keyed("r", k=keys[1]), ON_K)

    def test_duplicates_on_the_right_only(self):
        left, right = np.array([7, 2, 5]), np.repeat(np.arange(10), 6)[::-1].copy()
        assert builds_on_the_left(*factorize_pair(left, right))
        check_all_kernels(keyed("l", k=left), keyed("r", k=right), ON_K)

    def test_duplicates_on_both_sides(self):
        left, right = np.array([3, 3, 1, 3]), np.tile(np.arange(8), 5)
        assert builds_on_the_left(*factorize_pair(left, right))
        check_all_kernels(keyed("l", k=left), keyed("r", k=right), ON_K)

    def test_left_rows_outside_the_span_share_the_sentinel(self):
        left = np.array([900, 4, -7, 900, 10**6, 4, -7, 900])
        right = np.repeat(np.arange(3, 9), 7)
        left_codes, right_codes, domain = factorize_pair(left, right)
        assert (left_codes == domain - 1).sum() == 6
        assert builds_on_the_left(left_codes, right_codes, domain)
        check_all_kernels(keyed("l", k=left), keyed("r", k=right), ON_K)

    def test_dictionary_keys_with_differing_dictionaries(self):
        left = DictEncodedArray.encode(np.array(["c", "zz", "a"], dtype=object))
        right = DictEncodedArray.encode(np.array(list("abcdab" * 5), dtype=object))
        assert builds_on_the_left(*factorize_pair(left, right))
        check_all_kernels(keyed("l", k=left), keyed("r", k=right), ON_K)

    def test_composite_keys_with_a_residual_predicate(self):
        left = keyed("l", k=np.array([2, 0, 2]), k2=np.array([5, 5, 6]))
        right = keyed("r", k=np.tile(np.arange(4), 8), k2=np.repeat(np.arange(4, 8), 8))
        predicates = ON_K + [JoinPredicate("l", "k2", "r", "k2")]
        # A composite domain of 4 x 5 does not fit: k2 is checked on the pairs.
        with mock.patch.object(joins_module, "_MAX_COMPOSITE_DOMAIN", 8):
            codes = joins_module._composite_codes(left, right, predicates, LEFT)
            assert codes[3] == predicates[1:]
            assert builds_on_the_left(*codes[:3])
            check_all_kernels(left, right, predicates)

    @pytest.mark.parametrize("left_rows, right_rows", [(0, 30), (3, 0), (0, 0)])
    def test_an_empty_side(self, left_rows, right_rows):
        left, right = np.arange(left_rows) % 2, np.arange(right_rows) % 2
        check_all_kernels(keyed("l", k=left), keyed("r", k=right), ON_K)

    def test_the_rule_compares_the_two_sort_sizes(self):
        right_codes = np.repeat(np.arange(5), 2)
        # 4 left rows + 6 matches == 10 right rows: not less, the right side is built.
        boundary = np.array([0, 1, 2, 5])
        assert not builds_on_the_left(boundary, right_codes, 6)
        # 4 + 4 < 10: the left side is built.
        below = np.array([0, 1, 5, 5])
        assert builds_on_the_left(below, right_codes, 6)
        for left_codes in (boundary, below):
            want = reference_pairs([left_codes.tolist()], [right_codes.tolist()])
            got = hash_match(left_codes, right_codes, 6)
            assert [index.tolist() for index in got] == list(want)

    @staticmethod
    def sorted_lengths(monkeypatch, left_codes, right_codes, domain):
        """Lengths of the arrays ``hash_match`` hands to ``np.argsort``."""
        lengths, argsort = [], np.argsort

        def recording(array, *args, **kwargs):
            lengths.append(len(array))
            return argsort(array, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(np, "argsort", recording)
            left_index, _ = hash_match(left_codes, right_codes, domain)
        return lengths, len(left_index)

    def test_nothing_longer_than_left_plus_matches_is_sorted(self, monkeypatch, make_rng):
        rng = make_rng(11)
        right_codes = rng.permutation(np.repeat(np.arange(30_000), 5))
        left_codes = rng.choice(30_000, size=200, replace=False)
        lengths, matches = self.sorted_lengths(monkeypatch, left_codes, right_codes, 30_000)
        assert matches == 1_000
        assert lengths and max(lengths) <= 200 + matches

    def test_a_small_right_side_is_still_the_one_sorted(self, monkeypatch, make_rng):
        rng = make_rng(12)
        left_codes = rng.permutation(np.repeat(np.arange(30_000), 5))
        right_codes = np.repeat(rng.choice(30_000, size=100, replace=False), 2)
        lengths, _ = self.sorted_lengths(monkeypatch, left_codes, right_codes, 30_000)
        assert lengths == [200]


# --------------------------------------------------------------------------- #
# Index probe
# --------------------------------------------------------------------------- #
def indexed_inner(keys: np.ndarray):
    """An inner base table (``k``, ``payload``) as relation ``r`` plus its index."""
    schema = TableSchema("inner", (Column("k", "int"), Column("payload", "float")))
    table = Table(schema, {"k": keys, "payload": np.arange(len(keys)) * 0.5})
    return Relation.from_table(table, "r"), SortedIndex(table, "k")


def check_index_probe(left_keys: np.ndarray, right_keys: np.ndarray, keep=None) -> None:
    left = keyed("l", k=left_keys)
    right, index = indexed_inner(right_keys)
    joined = index_nested_loop_join(left, right, left["l.k"], index, keep=keep)
    assert_same_relation(nested_loop_join(left, right, ON_K, LEFT, keep=keep), joined)
    want_left, want_right = reference_pairs([left_keys.tolist()], [right_keys.tolist()])
    if keep is None or "l.payload" in keep:
        assert (joined["l.payload"] * 2).tolist() == want_left
        assert (joined["r.payload"] * 2).tolist() == want_right
    assert joined.num_rows == len(want_left)


@st.composite
def index_probe_keys(draw):
    """Outer keys of any dtype that widens to int64; int64 inner keys, repeating."""
    dtype = draw(st.sampled_from([d for d in INT_DTYPES if d is not np.uint64]))
    info = np.iinfo(dtype)
    inner = draw(st.lists(st.integers(-5, 40) | st.integers(info.min, info.max), max_size=40))
    outer_values = st.integers(-7, 42) | st.integers(info.min, info.max)
    if inner:
        outer_values |= st.sampled_from(inner)
    outer = draw(st.lists(outer_values.filter(lambda v: info.min <= v <= info.max), max_size=40))
    return np.array(outer, dtype=dtype), np.array(inner, dtype=np.int64)


class TestIndexProbe:
    @settings(max_examples=150, deadline=None)
    @given(keys=index_probe_keys())
    def test_against_the_nested_loop_reference(self, keys):
        check_index_probe(*keys)

    def test_duplicate_inner_keys_come_out_in_row_order(self):
        check_index_probe(np.array([4, 1, 4]), np.array([4, 1, 4, 4, 2, 1]))

    def test_outer_keys_absent_from_the_index(self):
        check_index_probe(np.array([-3, 7, 100, 5]), np.array([5, 6, 8, 5]))
        check_index_probe(np.array([-3, 100]), np.array([5, 6, 8, 5]))

    def test_empty_sides(self):
        check_index_probe(np.empty(0, dtype=np.int64), np.array([1, 1, 2]))
        check_index_probe(np.array([1, 2]), np.empty(0, dtype=np.int64))

    def test_keep_drops_the_key(self):
        keep = frozenset({"l.payload", "r.payload"})
        check_index_probe(np.array([2, 9, 2, 3]), np.array([3, 2, 2, 7]), keep=keep)
        check_index_probe(np.array([2, 9, 2, 3]), np.array([3, 2, 2, 7]), keep=frozenset())


# --------------------------------------------------------------------------- #
# Selection
# --------------------------------------------------------------------------- #
class TestSelect:
    @settings(max_examples=100, deadline=None)
    @given(
        mask=st.one_of(
            st.lists(st.booleans(), max_size=60),
            st.integers(0, 60).map(lambda rows: [True] * rows),
            st.integers(0, 60).map(lambda rows: [False] * rows),
        ),
        with_columns=st.booleans(),
    )
    def test_select_is_take_is_boolean_indexing(self, mask, with_columns):
        mask = np.array(mask, dtype=bool)
        rows = len(mask)
        words = np.array([f"w{i % 5}" for i in range(rows)], dtype=object)
        relation = Relation(
            {
                "t.i": np.arange(rows, dtype=np.int32) * 3,
                "t.f": np.arange(rows, dtype=np.float64) / 7,
                "t.s": DictEncodedArray.encode(words),
            }
            if with_columns
            else {},
            num_rows=rows,
        )
        selected = relation.select(mask)
        assert selected.num_rows == int(mask.sum())
        assert_same_relation(relation.take(np.flatnonzero(mask)), selected)
        for name, column in relation.items():
            if isinstance(column, DictEncodedArray):
                assert selected[name].dictionary is column.dictionary
                assert np.array_equal(selected[name].codes, column.codes[mask])
            else:
                assert selected[name].dtype == column.dtype
                assert np.array_equal(selected[name], column[mask])

    def test_filter_keeps_only_the_named_columns(self):
        relation = Relation(
            {
                "t.a": np.array([1, 5, 3, 9]),
                "t.b": np.array([10, 20, 30, 40]),
                "t.c": DictEncodedArray.encode(np.array(["x", "y", "x", "z"], dtype=object)),
            }
        )
        predicates = [LocalPredicate("t", "a", ">", 2), LocalPredicate("t", "c", "<>", "z")]
        full = filter_relation(relation, "t", predicates)
        kept = filter_relation(relation, "t", predicates, keep=["t.b"])
        assert_same_relation(full.project(["t.b"]), kept)
        assert kept["t.b"].tolist() == [20, 30]
        # Without predicates it is a plain projection; with none kept, rows survive.
        assert_same_relation(relation.project(["t.c"]), filter_relation(relation, "t", [], keep=["t.c"]))
        assert filter_relation(relation, "t", predicates, keep=[]).num_rows == 2
