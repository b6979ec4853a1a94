"""Fixture: imports nothing reads (RPL013)."""

import json
import os.path
from typing import List, Sequence


def first(values: List[int]) -> int:
    return values[0]


def describe(values):
    from collections import Counter  # a local import is checked too

    return len(values)
