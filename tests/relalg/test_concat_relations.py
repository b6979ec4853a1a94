"""``concat_relations`` over dictionary-encoded parts stays in code space.

Morsels of one relation share a dictionary object; shard fragments pickled
back from worker processes bring one dictionary object each — equal when
every shard saw every value, different when a shard missed one or is empty.
Whatever the mix, the concatenation must equal decode-then-concatenate value
for value and remain a ``DictEncodedArray`` over a sorted dictionary, so the
gather merge's canonical sort compares ``int32`` codes, never strings.
"""

from __future__ import annotations

import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.relalg.relation as relation_module
from repro.executor.materialization import canonicalize_relation
from repro.relalg import DictEncodedArray, Relation, concat_relations

VALUES = ["ant", "bee", "cat", "dog", "eel"]


def encoded(values) -> DictEncodedArray:
    return DictEncodedArray.encode(np.array(values, dtype=object))


def part(column: DictEncodedArray) -> Relation:
    return Relation({"t.s": column, "t.n": np.arange(len(column))})


def check(parts) -> DictEncodedArray:
    merged = concat_relations(parts)
    column = merged["t.s"]
    want = np.concatenate([p["t.s"].decode() for p in parts])
    assert isinstance(column, DictEncodedArray)
    assert column.codes.dtype == np.int32
    assert column.decode().tolist() == want.tolist()
    assert column.dictionary.tolist() == sorted(set(column.dictionary.tolist()))
    assert merged["t.n"].tolist() == np.concatenate([p["t.n"] for p in parts]).tolist()
    assert merged.num_rows == len(want)
    return column


class TestEncodedConcatenation:
    def test_one_shared_dictionary_object_is_reused(self):
        whole = encoded(["cat", "ant", "cat", "bee"])
        column = check([part(whole.take(np.arange(0, 2))), part(whole.take(np.arange(2, 4)))])
        assert column.dictionary is whole.dictionary

    def test_equal_but_distinct_dictionaries_are_reused_without_remapping(self):
        whole = encoded(["cat", "ant", "cat", "bee"])
        shipped = [pickle.loads(pickle.dumps(whole.take(np.arange(lo, lo + 2)))) for lo in (0, 2)]
        assert shipped[0].dictionary is not shipped[1].dictionary
        column = check([part(piece) for piece in shipped])
        assert column.dictionary is shipped[0].dictionary
        assert column.codes.tolist() == whole.codes.tolist()

    def test_a_shard_missing_a_value_and_an_empty_shard(self):
        column = check([
            part(encoded(["dog", "ant"])),
            part(encoded([])),
            part(encoded(["bee", "dog", "eel"])),
        ])
        assert column.dictionary.tolist() == ["ant", "bee", "dog", "eel"]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(VALUES), max_size=6), min_size=2, max_size=4))
    def test_equals_decode_then_concatenate(self, shards):
        check([part(encoded(values)) for values in shards])

    def test_plain_and_encoded_parts_of_one_column_fall_back_to_values(self):
        merged = concat_relations([
            Relation({"t.s": encoded(["bee", "ant"])}),
            Relation({"t.s": np.array(["cat"], dtype=object)}),
        ])
        assert merged["t.s"].tolist() == ["bee", "ant", "cat"]


class TestGatherMergeNeverDecodes:
    def test_all_encoded_parts_concatenate_and_sort_without_decode(self, monkeypatch):
        """The pin: if the gather merge ever decodes again (and sorts Python
        strings), this fails rather than a benchmark quietly regressing."""
        def refuse(column):
            assert not isinstance(column, DictEncodedArray), "gather merge decoded a column"
            return column

        monkeypatch.setattr(relation_module, "decode_column", refuse)
        parts = [part(encoded(["dog", "ant", "dog"])), part(encoded(["bee", "cat"]))]
        ordered = canonicalize_relation(concat_relations(parts))
        monkeypatch.undo()
        # Ordered by (t.n, t.s): names in sorted order, strings by their codes.
        assert ordered["t.n"].tolist() == [0, 0, 1, 1, 2]
        assert ordered["t.s"].decode().tolist() == ["bee", "dog", "ant", "cat", "dog"]
