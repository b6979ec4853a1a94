"""``SUM``/``AVG`` are correctly rounded: the kernel against ``math.fsum``.

:func:`~repro.relalg.aggregate.exact_group_sums` must return, for every
group, ``math.fsum`` of the group's values — bit for bit, in any row order
and under any block size — over 1-, 2- and many-row groups, groups that
span blocks, subnormals, ``±2**1000`` cancellation, round-half-even ties and
magnitudes from ``2**970`` on (the rational fallback).  (An empty input has
no groups; its global ``SUM`` is NaN, pinned in ``test_kernel_references``.)
Non-finite values follow ``math.fsum``'s rule, except that ``inf - inf`` is
NaN where ``math.fsum`` raises.  Integer columns go through the same kernel,
so an integer ``SUM`` past ``2**53`` no longer depends on row order, on the
path (grouped, global) or on the sharding.
"""

from __future__ import annotations

import math
from itertools import permutations
from typing import List
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.relalg.aggregate as aggregate_module
from repro.relalg import Relation, group_aggregate
from repro.relalg.aggregate import exact_group_sums
from repro.service import QueryService, ShardedQueryService, ShardingSpec
from repro.sql.ast import Aggregate, ColumnRef
from repro.storage.catalog import Database
from repro.storage.table import Column, Table, TableSchema

TWO_53 = 2**53


def fsum_rule(values: List[float]) -> float:
    """``math.fsum``, with NaN where it raises on ``inf - inf``."""
    try:
        return math.fsum(values)
    except ValueError:
        return math.nan


def sums_of(groups: List[List[float]], block_rows: int) -> np.ndarray:
    values = np.array([value for group in groups for value in group], dtype=np.float64)
    starts = np.cumsum([0] + [len(group) for group in groups[:-1]])
    with mock.patch.object(aggregate_module, "_SUM_BLOCK_ROWS", block_rows):
        return exact_group_sums(values, starts)


def assert_same_bits(got: float, want: float) -> None:
    if math.isnan(want):
        assert math.isnan(got)
    else:
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), (got, want)


# Magnitudes stay below 2**1019, so 16 values never overflow math.fsum.
ordinary = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
wide = st.floats(min_value=-(2.0**1019), max_value=2.0**1019)
subnormal = st.integers(-(2**52) + 1, 2**52 - 1).map(lambda units: units * 2.0**-1074)
special = st.sampled_from([
    2.0**1000, -(2.0**1000), 2.0**970, -(2.0**975), 2.0**1018,
    1.0, 2.0**-53, -(2.0**-53), 2.0**-52, 3.0 * 2.0**-53, 0.0, -0.0, 0.1,
])
value = st.one_of(ordinary, wide, subnormal, special)
group = st.lists(value, min_size=1, max_size=16)
NON_FINITE = [math.inf, -math.inf, math.nan]


@settings(max_examples=250, deadline=None)
@given(
    groups=st.lists(group, min_size=1, max_size=8),
    block_rows=st.sampled_from([1, 2, 3, 5, 1 << 16]),
    data=st.data(),
)
def test_every_group_sum_is_fsum_in_any_row_order(groups, block_rows, data):
    got = sums_of(groups, block_rows)
    shuffled = [data.draw(st.permutations(group)) for group in groups]
    again = sums_of(shuffled, block_rows)
    for index, values in enumerate(groups):
        assert_same_bits(got[index], math.fsum(values))
        assert_same_bits(again[index], got[index])


@settings(max_examples=100, deadline=None)
@given(groups=st.lists(
    st.lists(st.one_of(value, st.sampled_from(NON_FINITE)), min_size=1, max_size=6),
    min_size=1, max_size=4,
))
def test_non_finite_values_follow_the_fsum_rule(groups):
    got = sums_of(groups, 1 << 16)
    for index, values in enumerate(groups):
        assert_same_bits(got[index], fsum_rule(values))


@settings(max_examples=100, deadline=None)
@given(groups=st.lists(
    st.lists(st.one_of(st.integers(-(2**40), 2**40), st.integers(-(2**62), 2**62)),
             min_size=1, max_size=16),
    min_size=1, max_size=6,
))
def test_integer_sums_are_fsum_of_the_float64_values(groups):
    """Both integer paths: one exact ``reduceat`` below 2**53, else the
    level extraction over the values converted to ``float64``."""
    values = np.array([value for group in groups for value in group], dtype=np.int64)
    starts = np.cumsum([0] + [len(group) for group in groups[:-1]])
    got = exact_group_sums(values, starts)
    for index, group_values in enumerate(groups):
        assert_same_bits(got[index], math.fsum(float(value) for value in group_values))


@pytest.mark.parametrize(
    "values, want",
    [
        ([1.0, 2.0**-53], 1.0),  # a tie rounds to even
        ([1.0 + 2.0**-52, 2.0**-53], 1.0 + 2.0**-51),
        ([1.0, 2.0**-53, 2.0**-100], 1.0 + 2.0**-52),  # three levels
        ([2.0**1000, 1.0, -(2.0**1000)], 1.0),
        ([2.0**-1074, 2.0**1000, -(2.0**1000)], 2.0**-1074),
        ([1e308, 1e308, -1e308], 1e308),  # math.fsum overflows here
        ([1e308, 1e308], math.inf),
        ([-1e308, -1e308], -math.inf),
        ([-0.0, -0.0], 0.0),
        ([math.inf, 1e308, 1e308], math.inf),
        ([math.inf, -math.inf], math.nan),
        ([math.nan, 1.0], math.nan),
    ],
)
def test_stated_cases(values, want):
    assert_same_bits(sums_of([values], 1 << 16)[0], want)


def test_groups_spanning_real_blocks(make_rng):
    rng = make_rng(5)
    rows = 3 * (1 << 16) + 17
    values = rng.uniform(-1.0, 1.0, size=rows) * 10.0 ** rng.integers(-30, 30, size=rows)
    starts = np.array([0, 3, (1 << 16) - 1, (1 << 16) + 1, 2 * (1 << 16) + 5])
    got = exact_group_sums(values, starts)
    ends = np.append(starts[1:], rows)
    for index, (start, end) in enumerate(zip(starts, ends)):
        assert_same_bits(got[index], math.fsum(values[start:end].tolist()))


# --------------------------------------------------------------------------- #
# Integer SUM/AVG past 2**53
# --------------------------------------------------------------------------- #
SUM_AVG = [Aggregate("sum", "t", "q", "total"), Aggregate("avg", "t", "q", "mean")]


@pytest.mark.parametrize("order", list(permutations(range(3))))
def test_integer_sum_past_2_53_is_exact_in_every_row_order(order):
    q = np.array([TWO_53, 1, 1], dtype=np.int64)[list(order)]
    grouped = group_aggregate(
        Relation({"t.g": np.zeros(3, dtype=np.int64), "t.q": q}), [ColumnRef("t", "g")], SUM_AVG
    )
    whole = group_aggregate(Relation({"t.q": q}), [], SUM_AVG)
    for result in (grouped, whole):
        assert result["total"].tolist() == [float(TWO_53 + 2)]
        assert result["mean"].tolist() == [float(TWO_53 + 2) / 3]


def test_integer_sum_past_2_53_is_the_same_on_every_path():
    """2**53 comes first, so a row-order sum drops each 1 that follows it on
    its shard; merging per-shard sums would round each shard's once more."""
    db = Database("past_2_53")
    db.create_table(Table(
        TableSchema("t", (Column("k", "int"), Column("g", "int"), Column("q", "int"))),
        {"k": np.arange(3), "g": np.zeros(3, dtype=np.int64), "q": np.array([TWO_53, 1, 1])},
    ))
    db.analyze()
    db.create_samples(ratio=0.5, seed=1)
    grouped = "SELECT t.g, SUM(t.q) AS total, AVG(t.q) AS mean FROM t WHERE t.k < 9 GROUP BY t.g"
    whole = "SELECT SUM(t.q) AS total, AVG(t.q) AS mean FROM t WHERE t.k < 9"
    want = float(TWO_53 + 2)
    with QueryService(db) as single:
        results = [single.execute(sql) for sql in (grouped, whole)]
    for shards in (2, 3):
        spec = ShardingSpec(partitioned={"t": "k"})
        with ShardedQueryService(db, num_shards=shards, spec=spec) as sharded:
            results += [sharded.execute(sql) for sql in (grouped, whole)]
    for result in results:
        assert result.execution.columns["total"].tolist() == [want]
        assert result.execution.columns["mean"].tolist() == [want / 3]
    assert [result.source for result in results[2:]] == ["scatter_gather"] * 4
