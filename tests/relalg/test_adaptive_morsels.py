"""Tests for adaptive morsel sizing.

The sizer's contract: per stage, grow the morsel row count while the measured
per-task overhead fraction stays above the 5% target; growth is monotone,
clamped to ``[min_rows, max_rows]``, converges (at most ``log2(max/min)``
doublings), and stages are sized independently.  Sizing is a scheduling hint
only — the final class re-runs the grouped-aggregation kernel at every size a
driven sizer actually picked and asserts bit-identity against serial at each.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.relalg.aggregate as aggregate_module
from repro.relalg import (
    AdaptiveMorselSizer,
    DictEncodedArray,
    Relation,
    TaskScheduler,
    group_aggregate,
)
from repro.sql.ast import Aggregate, ColumnRef

pytestmark = pytest.mark.usefixtures("multicore_host")


def observe_overheated(sizer, stage, fraction=0.8, batches=1):
    """Feed ``batches`` observations whose overhead fraction is ``fraction``.

    With ``workers=2`` and ``tasks=8`` the effective capacity is ``2 * wall``;
    busy seconds are chosen so the measured fraction equals ``fraction``.
    """
    wall = 1.0
    busy = (1.0 - fraction) * wall * 2
    for _ in range(batches):
        sizer.observe(stage, tasks=8, wall_seconds=wall, busy_seconds=busy, workers=2)


class TestAdaptiveMorselSizer:
    def test_seed_is_clamped_into_bounds(self):
        sizer = AdaptiveMorselSizer(min_rows=1000, max_rows=8000)
        assert sizer.morsel_rows("s", 10) == 1000
        assert sizer.morsel_rows("s2", 1_000_000) == 8000
        assert sizer.morsel_rows("s3", 4000) == 4000

    def test_high_overhead_doubles_until_max(self):
        sizer = AdaptiveMorselSizer(min_rows=1000, max_rows=16_000)
        assert sizer.morsel_rows("agg", 1000) == 1000
        for expected in (2000, 4000, 8000, 16_000, 16_000):
            observe_overheated(sizer, "agg")
            assert sizer.morsel_rows("agg", 1000) == expected
        history = sizer.snapshot()["agg"].sizes
        assert history == [1000, 2000, 4000, 8000, 16_000]
        assert history == sorted(history)  # growth is monotone

    def test_low_overhead_converges_without_growth(self):
        sizer = AdaptiveMorselSizer(min_rows=1000, max_rows=16_000)
        sizer.morsel_rows("join", 2000)
        for _ in range(10):
            observe_overheated(sizer, "join", fraction=0.01)
        state = sizer.snapshot()["join"]
        assert state.morsel_rows == 2000
        assert state.sizes == [2000]
        assert state.observations == 10
        assert state.overhead_fraction == pytest.approx(0.01, abs=1e-9)

    def test_ewma_converges_to_steady_fraction(self):
        """A noisy first batch must not pin the size forever: the EWMA tracks
        the steady state, and growth stops once it is under target."""
        sizer = AdaptiveMorselSizer(min_rows=1000, max_rows=64_000, smoothing=0.5)
        sizer.morsel_rows("f", 1000)
        observe_overheated(sizer, "f", fraction=0.9)  # cold-start spike: grows
        for _ in range(12):
            observe_overheated(sizer, "f", fraction=0.01)
        state = sizer.snapshot()["f"]
        assert state.overhead_fraction < 0.05
        assert state.morsel_rows < 64_000  # did not run away to the max

    def test_single_task_batches_never_grow(self):
        sizer = AdaptiveMorselSizer(min_rows=1000, max_rows=16_000)
        sizer.morsel_rows("solo", 1000)
        for _ in range(5):
            sizer.observe("solo", tasks=1, wall_seconds=1.0, busy_seconds=0.0, workers=4)
        # One-task batches have no per-task amortization to win: growing the
        # morsel cannot reduce overhead, so the size must stay put.
        assert sizer.morsel_rows("solo", 1000) == 1000

    def test_stages_are_independent(self):
        sizer = AdaptiveMorselSizer(min_rows=1000, max_rows=16_000)
        sizer.morsel_rows("join", 1000)
        sizer.morsel_rows("agg", 1000)
        observe_overheated(sizer, "join", batches=3)
        assert sizer.morsel_rows("join", 1000) == 8000
        assert sizer.morsel_rows("agg", 1000) == 1000

    def test_degenerate_observations_are_ignored(self):
        sizer = AdaptiveMorselSizer(min_rows=1000, max_rows=16_000)
        sizer.observe("x", tasks=0, wall_seconds=1.0, busy_seconds=0.0, workers=2)
        sizer.observe("x", tasks=4, wall_seconds=0.0, busy_seconds=0.0, workers=2)
        assert "x" not in sizer.snapshot()


class TestSchedulerIntegration:
    def test_stage_none_bypasses_adaptation(self):
        with TaskScheduler(workers=2, name="sizing") as sched:
            observe_overheated(sched.sizer, "agg", batches=3)
            grown = sched.adaptive_morsel_rows("agg", 20_000)
            assert grown > 20_000  # the stage adapted...
            assert sched.adaptive_morsel_rows(None, 123) == 123  # ...None opts out

    def test_serial_scheduler_never_adapts(self):
        sched = TaskScheduler(workers=1, name="serial")
        observe_overheated(sched.sizer, "agg", batches=3)
        assert sched.adaptive_morsel_rows("agg", 123) == 123

    def test_kernel_batches_feed_the_sizer(self, monkeypatch, make_rng):
        monkeypatch.setattr(aggregate_module, "_MIN_PARALLEL_AGG_ROWS", 0)
        rng = make_rng(11)
        rows = 5000
        relation = Relation(
            {
                "t.g": rng.integers(0, 40, size=rows),
                "t.v": rng.uniform(size=rows),
            }
        )
        # A small-bounds sizer so a 5000-row relation still yields a multi-
        # task batch (the production floor of 16 384 rows would make it one
        # chunk, which has nothing to observe).
        sizer = AdaptiveMorselSizer(min_rows=64, max_rows=4096)
        with TaskScheduler(workers=2, name="feed", sizer=sizer) as sched:
            group_aggregate(
                relation,
                [ColumnRef("t", "g")],
                [Aggregate("sum", "t", "v", "total")],
                scheduler=sched,
                morsel_rows=512,
                stage="agg_feed",
            )
            state = sched.sizer.snapshot().get("agg_feed")
            assert state is not None and state.observations >= 1


class TestBitIdentityAcrossAdaptedSizes:
    def test_aggregation_identical_at_every_picked_size(self, monkeypatch, make_rng):
        """Drive a sizer through its whole growth history, then prove the
        kernel is bit-identical to serial at every size it ever picked."""
        monkeypatch.setattr(aggregate_module, "_MIN_PARALLEL_AGG_ROWS", 0)
        sizer = AdaptiveMorselSizer(min_rows=32, max_rows=4096)
        sizer.morsel_rows("sweep", 32)
        for _ in range(12):  # far past convergence at the max bound
            observe_overheated(sizer, "sweep")
        picked = sizer.snapshot()["sweep"].sizes
        assert picked[0] == 32 and picked[-1] == 4096

        rng = make_rng(17)
        rows = 6000
        relation = Relation(
            {
                "t.g": DictEncodedArray.encode(
                    np.array([f"g{v:03d}" for v in rng.integers(0, 120, size=rows)], dtype=object)
                ),
                "t.v": rng.uniform(-1e6, 1e6, size=rows),
            }
        )
        group_by = [ColumnRef("t", "g")]
        aggregates = [
            Aggregate("sum", "t", "v", "total"),
            Aggregate("avg", "t", "v", "mean"),
            Aggregate("count", None, None, "n"),
        ]
        serial = group_aggregate(relation, group_by, aggregates)
        with TaskScheduler(workers=4, name="sweep") as sched:
            for morsel_rows in picked:
                parallel = group_aggregate(
                    relation, group_by, aggregates,
                    scheduler=sched, morsel_rows=morsel_rows,
                )
                assert set(serial) == set(parallel)
                for name in serial:
                    a, b = serial[name], parallel[name]
                    if isinstance(a, DictEncodedArray):
                        assert np.array_equal(a.codes, b.codes), (name, morsel_rows)
                        assert np.array_equal(a.dictionary, b.dictionary)
                    else:
                        a, b = np.asarray(a), np.asarray(b)
                        assert a.dtype == b.dtype
                        assert np.array_equal(a, b), (name, morsel_rows)
