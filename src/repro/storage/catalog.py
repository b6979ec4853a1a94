"""The database catalog: tables, indexes, statistics and sample tables.

:class:`Database` is the central handle that the optimizer, executor and the
re-optimization loop share.  It owns:

* the base tables (:class:`repro.storage.table.Table`);
* secondary indexes (one sorted index per (table, column));
* per-table statistics produced by ANALYZE (:mod:`repro.stats.analyze`);
* a :class:`repro.storage.sampling.SampleSet` used by the sampling-based
  cardinality estimator.

The statistics and samples are populated lazily — ``analyze()`` and
``create_samples()`` must be called before optimization / re-optimization,
exactly as a DBA must run ``ANALYZE`` before expecting decent plans.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.errors import CatalogError
from repro.storage.index import SortedIndex
from repro.storage.sampling import DEFAULT_SAMPLING_RATIO, SampleSet
from repro.storage.table import Table

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.stats.statistics import TableStatistics


class Database:
    """A named collection of tables with indexes, statistics and samples."""

    def __init__(self, name: str = "db") -> None:
        self.name = name
        self._tables: Dict[str, Table] = {}
        self._indexes: Dict[Tuple[str, str], SortedIndex] = {}
        #: Table name -> TableStatistics, populated by repro.stats.analyze.
        self.statistics: Dict[str, "TableStatistics"] = {}
        #: Sample tables used by the sampling estimator.
        self.samples: Optional[SampleSet] = None
        #: Monotone counter driving the per-table epochs below.
        self._epoch_counter: int = 0
        #: Table name -> epoch of its last data change (create/replace/drop/
        #: explicit bump).  Cached query *results* derived from a table are
        #: valid exactly as long as its epoch is unchanged — the query
        #: service's result cache keys on a snapshot of these.  Guarded by
        #: ``_epoch_lock``: a lost update between two concurrent bumps would
        #: let an intervening snapshot alias the post-change state.
        self._table_epochs: Dict[str, int] = {}
        self._epoch_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Tables
    # ------------------------------------------------------------------ #
    def create_table(self, table: Table, replace: bool = False) -> Table:
        """Register ``table`` in the catalog and return it.

        Once samples exist, the table is sampled into them right away, so a
        table created (or replaced) after :meth:`create_samples` has the
        sample a full rebuild would draw.
        """
        if table.name in self._tables and not replace:
            raise CatalogError(f"table {table.name!r} already exists in database {self.name!r}")
        self._tables[table.name] = table
        self.bump_table_epoch(table.name)
        if replace:
            # Invalidate anything derived from the replaced table.
            self.statistics.pop(table.name, None)
            for key in [k for k in self._indexes if k[0] == table.name]:
                del self._indexes[key]
        if self.samples is not None:
            self.samples.add(table.name, table)
        return table

    def drop_table(self, name: str) -> None:
        """Remove a table together with its indexes, statistics and samples."""
        if name not in self._tables:
            raise CatalogError(f"cannot drop unknown table {name!r}")
        del self._tables[name]
        self.bump_table_epoch(name)
        self.statistics.pop(name, None)
        for key in [k for k in self._indexes if k[0] == name]:
            del self._indexes[key]
        if self.samples is not None and name in self.samples.samples:
            del self.samples.samples[name]
            self.samples.base_row_counts.pop(name, None)

    def table(self, name: str) -> Table:
        """Return the table called ``name``."""
        if name not in self._tables:
            raise CatalogError(f"unknown table {name!r} in database {self.name!r}")
        return self._tables[name]

    def has_table(self, name: str) -> bool:
        """Return True if a table called ``name`` exists."""
        return name in self._tables

    def table_names(self) -> List[str]:
        """Names of all tables, sorted."""
        return sorted(self._tables)

    # ------------------------------------------------------------------ #
    # Table epochs (result-cache invalidation)
    # ------------------------------------------------------------------ #
    def bump_table_epoch(self, name: str) -> int:
        """Advance ``name``'s epoch (its data changed); returns the new epoch.

        Called automatically by :meth:`create_table` / :meth:`drop_table`;
        call it explicitly after mutating a table's columns in place so the
        query service's result cache cannot serve stale rows.
        """
        with self._epoch_lock:
            self._epoch_counter += 1
            self._table_epochs[name] = self._epoch_counter
            return self._epoch_counter

    def epoch_snapshot(self, names: Iterable[str]) -> Tuple[Tuple[str, int], ...]:
        """A hashable snapshot of the epochs of ``names`` (sorted by name).

        A cached result stamped with this snapshot is valid exactly while
        every referenced table's epoch is unchanged: any bump makes later
        snapshots differ, so the stale cache line can never be hit again.
        """
        with self._epoch_lock:
            return tuple(
                sorted((name, self._table_epochs.get(name, 0)) for name in set(names))
            )

    # ------------------------------------------------------------------ #
    # Indexes
    # ------------------------------------------------------------------ #
    def create_index(self, table_name: str, column: str) -> None:
        """Create (or refresh) the index on a column."""
        self._indexes[(table_name, column)] = SortedIndex(self.table(table_name), column)

    def has_index(self, table_name: str, column: str) -> bool:
        """Return True if an index exists on (table, column)."""
        return (table_name, column) in self._indexes

    def index(self, table_name: str, column: str) -> SortedIndex:
        """Return the index on (table, column)."""
        key = (table_name, column)
        if key not in self._indexes:
            raise CatalogError(f"no index on {table_name}.{column}")
        return self._indexes[key]

    def indexed_columns(self, table_name: str) -> List[str]:
        """Return the list of indexed columns for one table."""
        return sorted(column for table, column in self._indexes if table == table_name)

    # ------------------------------------------------------------------ #
    # Statistics and samples
    # ------------------------------------------------------------------ #
    def analyze(self) -> None:
        """Collect optimizer statistics for every table (:func:`repro.stats.analyze.analyze`)."""
        from repro.stats.analyze import analyze as run_analyze

        run_analyze(self)

    def create_samples(
        self,
        ratio: float = DEFAULT_SAMPLING_RATIO,
        seed: Optional[int] = None,
    ) -> SampleSet:
        """Create sample tables for every base table and remember them."""
        self.samples = SampleSet.build(self._tables, ratio=ratio, seed=seed)
        return self.samples

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Database({self.name!r}, tables={self.table_names()})"
