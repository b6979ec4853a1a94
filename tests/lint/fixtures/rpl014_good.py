"""Fixture: sort permutations through the one stable order (RPL014)."""

import numpy as np

from repro.relalg.encoding import stable_order


def bucket_order(codes):
    return stable_order(codes)


def group_order(first, second):
    return stable_order(first, second)


def sorted_values(values):
    # Sorting values (not building a permutation) stays allowed.
    return np.sort(values)
