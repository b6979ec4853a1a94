"""Fixture: materialised relations in task signatures (RPL005)."""

from typing import List, Optional

from repro.relalg import Relation
from repro.storage.table import Table


def _scan_task(relation: Relation, start: int, stop: int):
    return relation


def _parts_task(parts: "List[Relation]"):
    return parts


def _load_task(table: Optional[Table]):
    return table
