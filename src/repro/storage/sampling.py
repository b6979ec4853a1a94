"""Sample tables for the Haas et al. sampling-based selectivity estimator.

The paper (Section 2.1) estimates the selectivity of a join query
``q = R1 ⋈ ... ⋈ RK`` by running the join over per-table samples:

    rho_hat = |R1s ⋈ ... ⋈ RKs| / (|R1s| * ... * |RKs|)

This module produces the per-table samples: every row is included
independently with probability equal to the sampling ratio (Bernoulli
sampling, the method the estimator's unbiasedness proof assumes), except
that a table is never sampled below ``DEFAULT_MIN_SAMPLE_ROWS`` rows.

Sampling is seeded so that experiments are reproducible.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

import numpy as np

from repro.errors import SamplingError
from repro.storage.table import Table

#: Default sampling ratio used throughout the paper's experiments (5%).
DEFAULT_SAMPLING_RATIO = 0.05

#: Minimum number of rows a sample should contain (when the base table has
#: that many).  A 5% sample of a tiny dimension table (``nation`` has 25 rows)
#: would contain 0-2 rows and make the Haas estimator wildly noisy; sampling
#: such tables in full costs nothing and keeps the estimator exact for them.
DEFAULT_MIN_SAMPLE_ROWS = 100


def table_seed(seed: int, table_name: str) -> int:
    """Derive a per-table sampling seed from ``(seed, table_name)``.

    The derivation must depend only on the table's *name*, never on its
    position among the sampled tables: a positional scheme (``seed + offset``
    over the sorted names) silently reshuffles every other table's sample the
    moment a table is added or dropped, breaking reproducibility of
    experiments that grow the schema.
    """
    payload = f"{seed}:{table_name}".encode("utf-8")
    return int.from_bytes(hashlib.blake2s(payload, digest_size=8).digest(), "big")


def sample_table(
    table: Table,
    ratio: float = DEFAULT_SAMPLING_RATIO,
    seed: Optional[int] = None,
) -> Table:
    """Return a Bernoulli sample of ``table``.

    Parameters
    ----------
    table:
        Base table to sample.
    ratio:
        Sampling ratio in ``(0, 1]``.
    seed:
        Seed for the pseudo-random generator; pass an int for reproducibility.

    A table of at most ``DEFAULT_MIN_SAMPLE_ROWS`` rows is sampled in full
    (scale factor 1, still unbiased); a larger one whose expected sample would
    fall below that floor gets a simple random sample of exactly that many
    rows.
    """
    if not 0.0 < ratio <= 1.0:
        raise SamplingError(f"sampling ratio must be in (0, 1], got {ratio}")
    rng = np.random.default_rng(seed)
    n = table.num_rows
    if n == 0:
        return table.take(np.empty(0, dtype=np.int64), name=f"{table.name}__sample")
    target_rows = ratio * n
    if target_rows >= n or n <= DEFAULT_MIN_SAMPLE_ROWS:
        indices = np.arange(n)
    elif target_rows < DEFAULT_MIN_SAMPLE_ROWS:
        indices = np.sort(rng.choice(n, size=DEFAULT_MIN_SAMPLE_ROWS, replace=False))
    else:
        indices = np.nonzero(rng.random(n) < ratio)[0]
    return table.take(indices, name=f"{table.name}__sample")


@dataclass
class SampleSet:
    """A collection of per-table samples sharing one sampling ratio.

    The sampling-based estimator (:mod:`repro.cardinality.sampling_estimator`)
    consumes a ``SampleSet``: it runs tentative join plans over the sample
    tables and scales the observed cardinalities back up by the per-table
    scale factors ``|R| / |Rs|``.
    """

    ratio: float
    samples: Dict[str, Table] = field(default_factory=dict)
    base_row_counts: Dict[str, int] = field(default_factory=dict)
    #: Base seed every table's generator derives from (``None``: unseeded).
    seed: Optional[int] = None

    @classmethod
    def build(
        cls,
        tables: Mapping[str, Table],
        ratio: float = DEFAULT_SAMPLING_RATIO,
        seed: Optional[int] = None,
    ) -> "SampleSet":
        """Sample every table in ``tables`` with a shared ratio and seed."""
        sample_set = cls(ratio=ratio, seed=seed)
        for name, table in sorted(tables.items()):
            sample_set.add(name, table)
        return sample_set

    def add(self, name: str, table: Table) -> None:
        """Sample ``table`` under ``name``, replacing any earlier sample.

        The table's generator is seeded from ``(seed, name)`` alone, so the
        sample equals the one :meth:`build` draws over any catalog holding
        the table, whatever other tables are added or removed.
        """
        per_table_seed = None if self.seed is None else table_seed(self.seed, name)
        self.samples[name] = sample_table(table, self.ratio, per_table_seed)
        self.base_row_counts[name] = table.num_rows

    def sample_for(self, table_name: str) -> Table:
        """Return the sample of ``table_name``.

        Raises
        ------
        SamplingError
            If no sample exists for that table.
        """
        if table_name not in self.samples:
            raise SamplingError(f"no sample available for table {table_name!r}")
        return self.samples[table_name]

    def scale_factor(self, table_name: str) -> float:
        """Return ``|R| / |Rs|`` for the given table.

        An empty sample falls back to ``1 / effective_ratio``, where the
        effective ratio accounts for the ``DEFAULT_MIN_SAMPLE_ROWS`` floor
        ``m``: a table whose target sample size was raised to ``m`` is
        effectively sampled at ``m / |R|``, not at ``ratio`` — using the raw
        ``1 / ratio`` there would overscale counts by up to
        ``m / (ratio * |R|)``.
        """
        base_rows = self.base_row_counts.get(table_name)
        if base_rows is None:
            raise SamplingError(f"no sample available for table {table_name!r}")
        sample_rows = self.samples[table_name].num_rows
        if sample_rows == 0:
            if base_rows <= 0:
                return 1.0
            floor_rows = float(min(DEFAULT_MIN_SAMPLE_ROWS, base_rows))
            return base_rows / max(self.ratio * base_rows, floor_rows)
        return base_rows / sample_rows
