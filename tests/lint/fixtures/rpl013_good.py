"""Fixture: every import is read somewhere RPL013 can see."""

from __future__ import annotations

import os.path
from typing import TYPE_CHECKING, Optional

from repro.optimizer.settings import OptimizerSettings

if TYPE_CHECKING:
    from repro.storage.table import Table

__all__ = ["OptimizerSettings", "widest"]


def widest(tables: "list[Table]", default: Optional[int] = None) -> Optional[int]:
    if not tables:
        return default
    return max(table.num_rows for table in tables)


def here() -> str:
    return os.path.dirname(__file__)
