"""Unit and property tests for table sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SamplingError
from repro.storage.sampling import DEFAULT_MIN_SAMPLE_ROWS, SampleSet, sample_table
from repro.storage.table import Column, Table, TableSchema


def make_table(rows: int) -> Table:
    schema = TableSchema("t", (Column("a", "int"),))
    return Table(schema, {"a": np.arange(rows)})


class TestSampleTable:
    def test_invalid_ratio_rejected(self):
        with pytest.raises(SamplingError):
            sample_table(make_table(10), ratio=0.0)
        with pytest.raises(SamplingError):
            sample_table(make_table(10), ratio=1.5)

    def test_full_ratio_returns_all_rows(self):
        sample = sample_table(make_table(50), ratio=1.0)
        assert sample.num_rows == 50

    def test_small_table_sampled_in_full(self):
        # At most DEFAULT_MIN_SAMPLE_ROWS rows: the whole table is kept
        # (protects the estimator).
        sample = sample_table(make_table(30), ratio=0.05, seed=1)
        assert sample.num_rows == 30

    def test_min_rows_floor_applies(self):
        sample = sample_table(make_table(1000), ratio=0.01, seed=1)
        assert sample.num_rows == DEFAULT_MIN_SAMPLE_ROWS == 100

    def test_bernoulli_sample_size_is_plausible(self):
        sample = sample_table(make_table(20_000), ratio=0.1, seed=3)
        assert 1500 < sample.num_rows < 2500

    def test_sampling_is_reproducible(self):
        first = sample_table(make_table(1000), ratio=0.2, seed=11)
        second = sample_table(make_table(1000), ratio=0.2, seed=11)
        assert list(first.column("a")) == list(second.column("a"))

    def test_empty_table(self):
        sample = sample_table(make_table(0), ratio=0.5)
        assert sample.num_rows == 0

    @given(rows=st.integers(min_value=1, max_value=2000), ratio=st.floats(min_value=0.01, max_value=1.0))
    @settings(max_examples=30, deadline=None)
    def test_sample_rows_subset_of_base(self, rows, ratio):
        table = make_table(rows)
        sample = sample_table(table, ratio=ratio, seed=0)
        assert sample.num_rows <= rows
        assert set(sample.column("a").tolist()) <= set(table.column("a").tolist())


class TestSampleSet:
    def test_seed_stable_when_tables_added(self):
        """Adding a table must not reshuffle the other tables' samples.

        Seeds are derived from ``(seed, table_name)``; the old positional
        ``seed + offset`` scheme shifted every seed after an insertion.
        """
        tables = {"alpha": make_table(5000), "gamma": make_table(5000)}
        before = SampleSet.build(tables, ratio=0.1, seed=7)
        # "beta" sorts between the existing names, shifting their offsets.
        tables["beta"] = make_table(5000)
        after = SampleSet.build(tables, ratio=0.1, seed=7)
        for name in ("alpha", "gamma"):
            assert (
                before.sample_for(name).column("a").tolist()
                == after.sample_for(name).column("a").tolist()
            )

    def test_scale_factor_fallback_uses_min_rows_aware_ratio(self):
        """The empty-sample fallback must honour the min-rows floor.

        With ratio=0.001 and the 100-row floor on a 10k-row table, the sampler
        would have drawn 100 rows (effective ratio 1%), so the fallback
        scale is 100x — the raw ``1 / ratio`` (1000x) overscales tenfold.
        """
        sample_set = SampleSet(ratio=0.001)
        sample_set.samples["t"] = make_table(0)
        sample_set.base_row_counts["t"] = 10_000
        assert sample_set.scale_factor("t") == pytest.approx(100.0)

    def test_scale_factor_fallback_empty_base_table(self):
        sample_set = SampleSet(ratio=0.5)
        sample_set.samples["t"] = make_table(0)
        sample_set.base_row_counts["t"] = 0
        assert sample_set.scale_factor("t") == 1.0

    def test_build_and_scale_factor(self):
        tables = {"big": make_table(10_000), "small": make_table(40)}
        sample_set = SampleSet.build(tables, ratio=0.1, seed=5)
        assert sample_set.sample_for("small").num_rows == 40
        assert sample_set.scale_factor("small") == pytest.approx(1.0)
        big_scale = sample_set.scale_factor("big")
        assert 8.0 < big_scale < 13.0

    def test_missing_table_raises(self):
        sample_set = SampleSet.build({"t": make_table(10)}, ratio=0.5)
        with pytest.raises(SamplingError):
            sample_set.sample_for("other")
        with pytest.raises(SamplingError):
            sample_set.scale_factor("other")
