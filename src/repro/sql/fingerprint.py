"""Normalized query fingerprints shared by the service's caches.

The query service (:mod:`repro.service`) keys both of its caches on one
:func:`template_fingerprint`: a prepared *template* is identified up to its
parameter slots.  The plan cache keys on it alone; the result cache adds the
:func:`binding_key` of one execution and the epochs of the referenced
tables.

Both keys **normalize** values before comparing: numerically equal constants
fingerprint identically (``5`` vs ``5.0`` vs ``numpy.int64(5)``), set-valued
``IN`` lists are order insensitive, and the query *name* is excluded
(workload instances named ``q3_i0`` / ``q3_i1`` with the same body are
duplicates).  Normalization never merges semantically different constants:
two queries differing only in a literal get distinct fingerprints — the
regression the shared utility exists to prevent.
"""

from __future__ import annotations

from typing import Mapping, Tuple, Union

from repro.sql.ast import Bindings, Parameter, Query

#: A normalized value: a small tagged tuple with total ordering within a tag.
NormalizedValue = Tuple


def normalize_value(value: object) -> NormalizedValue:
    """Canonical, hashable form of one predicate constant (or parameter).

    Numeric values compare by *value*, not representation: Python ints,
    floats and NumPy scalars that are numerically equal normalize to the same
    key, while any numeric difference — however the constant is spelled —
    yields a different key.  Sequences (``IN`` lists) normalize element-wise
    and order-insensitively; ``BETWEEN`` bounds keep their order (they are
    passed as the predicate's ``(low, high)`` tuple by the caller through the
    ordered variant below).
    """
    if isinstance(value, Parameter):
        # Tag positional vs named so mixed parameter kinds stay sortable
        # (and position 0 can never collide with a parameter named "0").
        if value.name is not None:
            return ("param", "name", value.name)
        return ("param", "index", value.index)
    if isinstance(value, bool):
        return ("bool", value)
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        # NumPy scalar: unwrap to the equivalent Python scalar first.
        try:
            value = value.item()
        except (AttributeError, ValueError):  # pragma: no cover - exotic types
            pass
    if isinstance(value, int):
        return ("num", float(value)) if abs(value) < 2**53 else ("num", value)
    if isinstance(value, float):
        return ("num", value)
    if isinstance(value, str):
        return ("str", value)
    if isinstance(value, (set, frozenset)):
        return ("set", tuple(sorted(normalize_value(item) for item in value)))
    if isinstance(value, (list, tuple)):
        return ("set", tuple(sorted(normalize_value(item) for item in value)))
    return ("repr", repr(value))


def _ordered_normalize(value: object) -> NormalizedValue:
    """Like :func:`normalize_value` but keeps sequence order (BETWEEN bounds)."""
    if isinstance(value, (list, tuple)):
        return ("seq", tuple(normalize_value(item) for item in value))
    return normalize_value(value)


def _predicate_value_key(op: str, value: object) -> NormalizedValue:
    # IN lists are sets (order irrelevant); BETWEEN bounds are ordered.
    if op == "between":
        return _ordered_normalize(value)
    return normalize_value(value)


def template_fingerprint(query: Query) -> Tuple:
    """Identity of a *prepared-statement template*, the key of every service cache.

    Covers the table references, the local predicates (normalized constants;
    parameter slots normalize to their key, position or name, rather than a
    value), the join predicates and the output block (projections,
    aggregates, group-by).  Two preparations of the same template — whatever
    their eventual bindings — share one plan-cache line, while templates
    differing in any baked-in constant, placeholder position or structure do
    not.  The query *name* is deliberately excluded.
    """
    tables = tuple(sorted((ref.alias, ref.table) for ref in query.tables))
    locals_ = tuple(
        sorted(
            (p.alias, p.column, p.op, _predicate_value_key(p.op, p.value))
            for p in query.local_predicates
        )
    )
    joins = tuple(
        sorted(
            (p.left_alias, p.left_column, p.right_alias, p.right_column)
            for p in (predicate.normalized() for predicate in query.join_predicates)
        )
    )
    aggregates = tuple(
        (a.func, a.alias, a.column, a.output_name) for a in query.aggregates
    )
    group_by = tuple((c.alias, c.column) for c in query.group_by)
    projections = tuple((c.alias, c.column) for c in query.projections)
    return ("template", tables, locals_, joins, aggregates, group_by, projections)


def binding_key(query: Query, bindings: Bindings) -> Tuple:
    """Canonical key of one set of parameter bindings for ``query``.

    The key pairs each parameter's key with its *normalized* bound value, in
    a canonical order, so numerically equal bindings hit the same result
    cache line whatever their Python type or the order the mapping was built
    in.
    """
    parameters = query.parameters()
    if isinstance(bindings, Mapping):
        resolved: Mapping[Union[int, str], object] = bindings
    else:
        resolved = {index: value for index, value in enumerate(bindings)}
    pairs = []
    for parameter in parameters:
        if parameter.key not in resolved:
            continue  # Query.bind reports missing bindings with a full list.
        # Tag the kind: positional 0 and named "0" are different slots and
        # must never produce the same result-cache key.
        slot = ("n", parameter.name) if parameter.name is not None else ("p", parameter.index)
        pairs.append((slot, normalize_value(resolved[parameter.key])))
    return tuple(sorted(pairs))
