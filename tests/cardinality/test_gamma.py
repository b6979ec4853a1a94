"""Unit tests for the Γ store of validated cardinalities."""

import pytest

from repro.cardinality.gamma import Gamma


class TestGamma:
    def test_record_and_get(self):
        gamma = Gamma()
        gamma.record({"a", "b"}, 123.0)
        assert gamma.get({"b", "a"}) == 123.0
        assert gamma.get({"a"}) is None
        assert {"a", "b"} in gamma
        assert len(gamma) == 1

    def test_empty_join_set_rejected(self):
        with pytest.raises(ValueError):
            Gamma().record([], 1.0)

    def test_merge_counts_new_entries_only(self):
        gamma = Gamma()
        gamma.record({"a"}, 10.0)
        added = gamma.merge({frozenset({"a"}): 12.0, frozenset({"a", "b"}): 5.0})
        assert added == 1
        # The newer value overwrites the older one.
        assert gamma.get({"a"}) == 12.0
        assert gamma.get({"a", "b"}) == 5.0

    def test_merge_gamma_instance(self):
        first = Gamma()
        first.record({"a"}, 1.0)
        second = Gamma()
        second.record({"b"}, 2.0)
        assert first.merge(second) == 1
        assert first.get({"b"}) == 2.0

    def test_merge_zero_new_entries_signals_coverage(self):
        gamma = Gamma()
        gamma.record({"a", "b"}, 4.0)
        assert gamma.merge({frozenset({"a", "b"}): 4.0}) == 0

    def test_merge_gamma_leaves_the_source_unchanged(self):
        source = Gamma()
        source.record({"a", "b"}, 42.0)
        target = Gamma()
        target.merge(source)
        target.record({"a", "b"}, 43.0)
        target.record({"c"}, 3.0)
        assert source.get({"a", "b"}) == 42.0
        assert {"c"} not in source
        assert len(source) == 1

    def test_merge_normalises_join_set_keys(self):
        gamma = Gamma()
        assert gamma.merge({("b", "a"): 7}) == 1
        assert gamma.get({"a", "b"}) == 7.0
        assert isinstance(gamma.get({"a", "b"}), float)

    def test_merge_of_empty_delta_changes_nothing(self):
        gamma = Gamma()
        gamma.record({"a"}, 1.0)
        checkpoint = gamma.epoch
        assert gamma.merge({}) == 0
        assert gamma.epoch == checkpoint
        assert len(gamma) == 1

    def test_epoch_increases_on_change_only(self):
        gamma = Gamma()
        assert gamma.epoch == 0
        gamma.record({"a"}, 1.0)
        first_epoch = gamma.epoch
        assert first_epoch > 0
        # Re-recording the same value is not a change.
        gamma.record({"a"}, 1.0)
        assert gamma.epoch == first_epoch
        gamma.record({"a"}, 2.0)
        assert gamma.epoch > first_epoch

    def test_changed_since_tracks_dirty_join_sets(self):
        gamma = Gamma()
        gamma.record({"a"}, 1.0)
        checkpoint = gamma.epoch
        assert gamma.changed_since(checkpoint) == frozenset()
        gamma.merge({frozenset({"a", "b"}): 5.0, frozenset({"a"}): 1.0})
        # Only the genuinely-changed join set is dirty; the re-validated
        # identical value is not.
        assert gamma.changed_since(checkpoint) == frozenset({frozenset({"a", "b"})})
        assert gamma.changed_since(0) == frozenset(
            {frozenset({"a"}), frozenset({"a", "b"})}
        )

    def test_latest_record_wins(self):
        """Γ is a plain map: every entry is a sampled estimate, and a
        re-validation overwrites the earlier value in either direction."""
        gamma = Gamma()
        gamma.record({"a", "b"}, 10.0)
        gamma.record({"a", "b"}, 999.0)
        assert gamma.get({"a", "b"}) == 999.0
        gamma.record({"a", "b"}, 10.0)
        assert gamma.get({"a", "b"}) == 10.0
        gamma.merge({frozenset({"a", "b"}): 12.0})
        assert gamma.get({"a", "b"}) == 12.0

    def test_overwrite_with_a_new_value_dirties_the_join_set(self):
        gamma = Gamma()
        gamma.record({"a"}, 5.0)
        checkpoint = gamma.epoch
        gamma.record({"a"}, 7.0)
        assert gamma.epoch > checkpoint
        assert gamma.changed_since(checkpoint) == frozenset({frozenset({"a"})})

    def test_iteration_and_items(self):
        gamma = Gamma()
        gamma.record({"a"}, 1.0)
        gamma.record({"a", "b"}, 2.0)
        assert set(gamma) == {frozenset({"a"}), frozenset({"a", "b"})}
        assert dict(gamma.items())[frozenset({"a"})] == 1.0
