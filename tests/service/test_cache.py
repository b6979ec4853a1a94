"""Result-cache LRU/eviction behavior and the drift metric."""

from __future__ import annotations

from repro.executor.executor import ExecutionResult
from repro.relalg import Relation
from repro.service import cache as cache_module
from repro.service.cache import ResultCache, max_drift


def _result(rows: int = 1) -> ExecutionResult:
    return ExecutionResult(columns=Relation(), num_rows=rows)


def _key(i: int, table: str = "t", epoch: int = 0):
    return ResultCache.key(("tpl",), (("0", ("num", float(i))),), ((table, epoch),))


class TestResultCache:
    def test_lru_eviction_beyond_bound(self, monkeypatch):
        monkeypatch.setattr(cache_module, "RESULT_CACHE_ENTRIES", 2)
        cache = ResultCache()
        cache.put(_key(1), _result(1))
        cache.put(_key(2), _result(2))
        assert cache.get(_key(1)) is not None  # 1 becomes most recent
        cache.put(_key(3), _result(3))         # evicts 2 (least recent)
        assert cache.get(_key(2)) is None
        assert cache.get(_key(1)) is not None
        assert cache.get(_key(3)) is not None
        assert cache.stats.evictions == 1
        assert len(cache) == 2

    def test_zero_entries_disables_the_cache(self, monkeypatch):
        monkeypatch.setattr(cache_module, "RESULT_CACHE_ENTRIES", 0)
        cache = ResultCache()
        cache.put(_key(1), _result())
        assert cache.get(_key(1)) is None
        assert len(cache) == 0

    def test_invalidate_table_only_sweeps_matching_lines(self):
        cache = ResultCache()
        cache.put(_key(1, table="a"), _result())
        cache.put(_key(2, table="b"), _result())
        assert cache.invalidate_table("a") == 1
        assert cache.get(_key(1, table="a")) is None
        assert cache.get(_key(2, table="b")) is not None
        assert cache.stats.invalidations == 1

    def test_epoch_is_part_of_the_key(self):
        cache = ResultCache()
        cache.put(_key(1, epoch=0), _result())
        assert cache.get(_key(1, epoch=1)) is None


class TestMaxDrift:
    def test_perfect_match_is_one(self):
        expectations = {frozenset({"a", "b"}): 100.0}
        assert max_drift(expectations, {frozenset({"a", "b"}): 100.0}) == 1.0

    def test_symmetric_ratio(self):
        expectations = {frozenset({"a"}): 10.0}
        assert max_drift(expectations, {frozenset({"a"}): 40.0}) == 4.0
        assert max_drift({frozenset({"a"}): 40.0}, {frozenset({"a"}): 10.0}) == 4.0

    def test_unknown_join_sets_are_skipped(self):
        expectations = {frozenset({"a"}): 10.0}
        observed = {frozenset({"b"}): 1e9}
        assert max_drift(expectations, observed) == 1.0

    def test_sub_row_values_are_floored(self):
        expectations = {frozenset({"a"}): 0.0}
        assert max_drift(expectations, {frozenset({"a"}): 0.5}) == 1.0

    def test_worst_join_set_decides(self):
        expectations = {frozenset({"a"}): 10.0, frozenset({"a", "b"}): 100.0}
        observed = {frozenset({"a"}): 20.0, frozenset({"a", "b"}): 10.0}
        assert max_drift(expectations, observed) == 10.0

    def test_nothing_observed_is_no_drift(self):
        assert max_drift({frozenset({"a"}): 10.0}, {}) == 1.0
