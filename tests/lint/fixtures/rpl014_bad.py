"""Fixture: sort permutations built outside stable_order (RPL014)."""

import numpy as np
from numpy import lexsort


def bucket_order(codes):
    return np.argsort(codes, kind="stable")


def group_order(first, second):
    return lexsort((second, first))


def ranked(counts):
    return counts.argsort()[::-1]
