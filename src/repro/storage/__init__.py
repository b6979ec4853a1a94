"""In-memory columnar storage engine: tables, catalog, indexes and samples."""

from __future__ import annotations

from repro.storage.catalog import Database
from repro.storage.index import SortedIndex
from repro.storage.sampling import SampleSet, sample_table
from repro.storage.table import Column, Table, TableSchema

__all__ = [
    "Column",
    "Database",
    "SampleSet",
    "SortedIndex",
    "Table",
    "TableSchema",
    "sample_table",
]
