"""Fixture: float aggregation through the canonical helpers (RPL008)."""

from repro.relalg import group_aggregate


def grouped_sum(relation, keys, aggregates):
    return group_aggregate(relation, keys, aggregates)


def plain_elementwise(values, other):
    # Elementwise arithmetic is order-free; only reductions are restricted.
    return values + other
