"""Lifecycle tests for the shared-memory segment registry and arenas.

The contract under test is the cleanup guarantee: **no shared-memory
segment outlives the registry or arena scope that published it** — not
after a normal scope exit, not after an exception, and not after a forced
``unlink_all``.  Leaks are asserted through the :class:`SegmentRegistry`
ledger (``live_names`` plus the created/unlinked counters) and through a
registry-blind audit of ``/dev/shm`` (:func:`shm_dir_segments`).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.relalg import DictEncodedArray, Relation, attach_columns, shm_dir_segments
from repro.relalg.shm import SegmentRegistry, ShmArena, attach_column, segment_registry


class TestSegmentRegistry:
    def test_refcounted_release(self):
        registry = SegmentRegistry()
        segment = registry.create(64)
        name = segment.name
        registry.retain(name)
        registry.release(name)
        assert registry.live_names() == [name]  # one reference still held
        registry.release(name)
        assert registry.live_names() == []
        assert registry.created_total == 1 and registry.unlinked_total == 1
        assert name not in shm_dir_segments()

    def test_unlink_all_force_frees_everything(self):
        registry = SegmentRegistry()
        names = [registry.create(16).name for _ in range(3)]
        registry.retain(names[0])  # even extra references do not survive
        assert sorted(registry.live_names()) == sorted(names)
        assert registry.unlink_all() == 3
        assert registry.live_names() == []
        assert not set(names) & set(shm_dir_segments())

    def test_release_of_unknown_name_is_a_no_op(self):
        registry = SegmentRegistry()
        registry.release("repro_shm_never_created")
        assert registry.live_names() == []

    def test_unlink_all_is_idempotent(self):
        registry = SegmentRegistry()
        name = registry.create(32).name
        assert registry.unlink_all() == 1
        assert registry.unlink_all() == 0
        registry.release(name)  # a late release of a force-freed name is a no-op
        assert registry.created_total == registry.unlinked_total == 1
        assert name not in shm_dir_segments()

    def test_segment_registry_is_one_ledger_per_process(self):
        assert segment_registry() is segment_registry()
        assert ShmArena().registry is segment_registry()


class TestShmArena:
    def test_scope_exit_releases_all_segments(self, make_rng):
        registry = SegmentRegistry()
        with ShmArena(registry) as arena:
            arena.share_array(make_rng(0).uniform(size=1000))
            arena.share_bytes(b"morsels")
            assert len(registry.live_names()) == 2
        assert registry.live_names() == []
        assert registry.unlinked_total == registry.created_total == 2

    def test_scope_exit_releases_on_exception(self, make_rng):
        registry = SegmentRegistry()
        with pytest.raises(RuntimeError):
            with ShmArena(registry) as arena:
                arena.share_array(make_rng(1).integers(0, 10, size=500))
                raise RuntimeError("kernel blew up mid-publish")
        assert registry.live_names() == []

    @pytest.mark.parametrize("kind", ["plain", "dict", "pickled"])
    def test_column_round_trip_by_kind(self, make_rng, kind):
        rng = make_rng(3)
        strings = np.array([f"v{v}" for v in rng.integers(0, 5, size=300)], dtype=object)
        column = {
            "plain": rng.uniform(size=300),
            "dict": DictEncodedArray.encode(strings),
            "pickled": strings,
        }[kind]
        registry = SegmentRegistry()
        with ShmArena(registry) as arena:
            descriptor = arena.share_column(column)
            assert descriptor.kind == kind
            attached = attach_column(descriptor)
            if kind == "dict":
                assert np.array_equal(attached.codes, column.codes)
                assert np.array_equal(attached.dictionary, column.dictionary)
            elif kind == "plain":
                assert attached.tobytes() == column.tobytes()
            else:
                assert attached.tolist() == column.tolist()
            del attached  # views must die before the arena frees the buffers
        assert registry.live_names() == []
        assert registry.unlinked_total == registry.created_total

    def test_relation_round_trip_is_bit_identical(self, make_rng):
        rng = make_rng(2)
        relation = Relation(
            {
                "t.a": rng.integers(0, 100, size=400),
                "t.v": rng.uniform(size=400),
                "t.s": DictEncodedArray.encode(
                    np.array([f"s{v}" for v in rng.integers(0, 7, size=400)], dtype=object)
                ),
            }
        )
        registry = SegmentRegistry()
        with ShmArena(registry) as arena:
            descriptor = arena.share_relation(relation)
            attached = Relation(
                attach_columns(descriptor.columns), num_rows=descriptor.num_rows
            )
            assert attached.num_rows == relation.num_rows
            assert np.array_equal(
                np.asarray(attached["t.a"]), np.asarray(relation["t.a"])
            )
            assert np.array_equal(
                np.asarray(attached["t.v"]), np.asarray(relation["t.v"])
            )
            assert np.array_equal(attached["t.s"].codes, relation["t.s"].codes)
            assert np.array_equal(attached["t.s"].dictionary, relation["t.s"].dictionary)
            # Plain columns are zero-copy views of the shared buffer, not copies.
            assert not np.shares_memory(
                np.asarray(attached["t.a"]), np.asarray(relation["t.a"])
            )
            del attached  # views must die before the arena frees the buffers
        assert registry.live_names() == []
