"""Pin the statistics layer: samples and ANALYZE output of one generated database.

One small skewed TPC-H database at a fixed seed is generated with the
production defaults (5 % Bernoulli samples with the 100-row floor, ANALYZE
at the default statistics target).  Each table's sampled row ids and every
column's ``ColumnStatistics`` are hashed and compared with recorded digests,
so any edit that moves a sampled row, a distinct count, an MCV or a
histogram bound fails here.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional

import numpy as np
import pytest

from repro.storage.table import Table
from repro.workloads.tpch import generate_tpch_database

SAMPLE_DIGESTS = {
    "customer": "d20701fa330a9e2e",
    "lineitem": "100f2f9d17ecec83",
    "nation": "6133c3201a04b8dd",
    "orders": "0190941f693f3d65",
    "part": "93f69a2fb189f5d8",
    "partsupp": "55d728fdede9ea6c",
    "region": "86c1b3261036a829",
    "supplier": "8950b1ba43b8cd0a",
}

STATISTICS_DIGESTS = {
    "customer": "1b6a5d0f87f585b7",
    "lineitem": "a53bf0e82ffade15",
    "nation": "ca0e5eb021bbe456",
    "orders": "435a281d1efd5fec",
    "part": "192475b823ba471d",
    "partsupp": "c27f0c58eb454dc4",
    "region": "b1df098042af8e54",
    "supplier": "75bd1a84f5595f3e",
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _float_text(value: Optional[float]) -> str:
    return "None" if value is None else float(value).hex()


@pytest.fixture(scope="module")
def pinned():
    """Generate the database once, recording each table's sampled row ids."""
    sampled: Dict[str, List[int]] = {}
    original_take = Table.take

    def recording_take(self, row_indices, name=None):
        if name is not None and name.endswith("__sample"):
            sampled[self.name] = np.asarray(row_indices, dtype=np.int64).tolist()
        return original_take(self, row_indices, name=name)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Table, "take", recording_take)
        db = generate_tpch_database(scale_factor=0.002, zipf_z=1.0, seed=11)
    return db, sampled


def test_every_table_is_sampled_and_analyzed(pinned):
    db, sampled = pinned
    assert sorted(sampled) == sorted(SAMPLE_DIGESTS) == db.table_names()
    assert sorted(db.statistics) == sorted(STATISTICS_DIGESTS)


def test_sampled_row_ids_are_unchanged(pinned):
    _, sampled = pinned
    digests = {name: _digest(repr(rows)) for name, rows in sorted(sampled.items())}
    assert digests == SAMPLE_DIGESTS


def test_column_statistics_are_unchanged(pinned):
    db, _ = pinned
    digests = {}
    for name in db.table_names():
        table_stats = db.statistics[name]
        parts = [f"rows={table_stats.row_count}"]
        for column, stats in sorted(table_stats.columns.items()):
            bounds = [] if stats.histogram is None else stats.histogram.bounds.tolist()
            parts.append(repr((
                column,
                stats.num_rows,
                stats.n_distinct,
                stats.is_numeric,
                [value.item() if isinstance(value, np.generic) else value for value in stats.mcv_values],
                [_float_text(fraction) for fraction in stats.mcv_fractions],
                [_float_text(bound) for bound in bounds],
                _float_text(stats.min_value),
                _float_text(stats.max_value),
            )))
        digests[name] = _digest("\n".join(parts))
    assert digests == STATISTICS_DIGESTS
