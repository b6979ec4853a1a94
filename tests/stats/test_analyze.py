"""Unit tests for ANALYZE statistics (MCVs, histograms, distinct counts)."""

import numpy as np
import pytest

from repro.relalg.encoding import DictEncodedArray
from repro.stats.analyze import analyze_column, analyze_table
from repro.stats.histogram import EquiDepthHistogram
from repro.storage.table import Column, Table, TableSchema


class TestAnalyzeColumn:
    def test_empty_column(self):
        stats = analyze_column(np.array([], dtype=np.int64), "a", is_numeric=True)
        assert stats.num_rows == 0
        assert stats.n_distinct == 0

    def test_distinct_count_exact(self):
        values = np.repeat(np.arange(20), 5)
        stats = analyze_column(values, "a", is_numeric=True)
        assert stats.n_distinct == 20
        assert stats.num_rows == 100

    def test_all_values_become_mcvs_for_small_domains(self):
        values = np.repeat(np.arange(10), 10)
        stats = analyze_column(values, "a", is_numeric=True)
        assert stats.num_mcvs == 10
        assert stats.mcv_total_fraction == pytest.approx(1.0)
        assert stats.mcv_fraction_for(3) == pytest.approx(0.1)

    def test_mcvs_capture_skewed_values(self, make_rng):
        rng = make_rng()
        skewed = np.concatenate([np.full(900, 7), rng.integers(100, 1000, size=100)])
        stats = analyze_column(skewed, "a", is_numeric=True)
        assert stats.mcv_values[0] == 7
        assert stats.mcv_fractions[0] == pytest.approx(0.9)

    @pytest.mark.parametrize("encoded", [False, True])
    def test_mcv_ties_go_by_ascending_value(self, make_rng, encoded):
        # 150 values tie at count 4, three more at count 9 and one at 6; all
        # qualify against 1,000 singletons, but only 100 fit.  The list is by
        # count descending, ties by ascending value — independent of how the
        # host's unstable sort orders equal counts.
        tied = np.arange(1_000, 1_150)
        heavy = np.array([9_999, 7, 9, 5_000])
        values = np.concatenate([np.repeat(tied, 4), np.repeat(heavy, [9, 9, 6, 9]),
                                 np.arange(20_000, 21_000)])
        values = make_rng().permutation(values)
        expected = [7, 5_000, 9_999, 9] + tied[:96].tolist()
        if encoded:
            values = DictEncodedArray.encode(np.array([f"v{v:05d}" for v in values], dtype=object))
            expected = [f"v{v:05d}" for v in expected]
        stats = analyze_column(values, "a", is_numeric=not encoded)
        assert stats.mcv_values == expected
        assert stats.mcv_fractions[2:5] == [9 / len(values), 6 / len(values), 4 / len(values)]

    def test_mcv_fraction_for_missing_value(self):
        stats = analyze_column(np.arange(1000), "a", is_numeric=True)
        assert stats.mcv_fraction_for(123456) is None

    def test_histogram_built_for_numeric_spread(self):
        stats = analyze_column(np.arange(1000), "a", is_numeric=True)
        assert stats.histogram is not None
        assert stats.min_value == 0
        assert stats.max_value == 999

    def test_string_column_has_no_histogram(self):
        values = np.array(["x", "y", "z", "x"], dtype=object)
        stats = analyze_column(values, "c", is_numeric=False)
        assert stats.histogram is None
        assert stats.is_numeric is False
        assert stats.n_distinct == 3

    def test_non_mcv_distinct_floor(self):
        stats = analyze_column(np.array([1, 1, 1, 1]), "a", is_numeric=True)
        assert stats.non_mcv_distinct() >= 1


class TestAnalyzeTable:
    def make_table(self, make_rng, rows=1000):
        rng = make_rng(1)
        schema = TableSchema("t", (Column("a", "int"), Column("b", "float"), Column("c", "str")))
        return Table(schema, {
            "a": rng.integers(0, 100, size=rows),
            "b": rng.uniform(0, 1, size=rows),
            "c": rng.choice(["u", "v", "w"], size=rows).astype(object),
        })

    def test_full_scan_statistics(self, make_rng):
        table = self.make_table(make_rng)
        stats = analyze_table(table)
        assert stats.row_count == 1000
        assert set(stats.columns) == {"a", "b", "c"}
        assert stats.column("a").n_distinct == 100
        assert stats.column("c").n_distinct == 3

    def test_has_column_and_missing_column(self, make_rng):
        stats = analyze_table(self.make_table(make_rng))
        assert stats.has_column("a")
        assert not stats.has_column("zzz")


class TestEquiDepthHistogram:
    def test_degenerate_inputs_return_none(self):
        assert EquiDepthHistogram.from_values(np.array([1.0])) is None
        assert EquiDepthHistogram.from_values(np.full(100, 3.0)) is None

    def test_fraction_below_monotone(self):
        hist = EquiDepthHistogram.from_values(np.arange(1000, dtype=float), num_buckets=10)
        fractions = [hist.fraction_below(value) for value in (0, 100, 500, 900, 999)]
        assert fractions == sorted(fractions)
        assert fractions[0] == pytest.approx(0.0, abs=0.01)
        assert fractions[-1] == pytest.approx(1.0, abs=0.01)

    def test_fraction_below_out_of_range(self):
        hist = EquiDepthHistogram.from_values(np.arange(100, dtype=float), num_buckets=5)
        assert hist.fraction_below(-10) == 0.0
        assert hist.fraction_below(500) == 1.0

    def test_uniform_quantiles(self):
        hist = EquiDepthHistogram.from_values(np.arange(10_000, dtype=float), num_buckets=100)
        assert hist.num_buckets == 100
        assert hist.bounds[0] == pytest.approx(0.0)
        assert hist.bounds[-1] == pytest.approx(9999.0)
